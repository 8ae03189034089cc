package gram

import (
	"context"
	"fmt"

	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/xmlsec"
)

// Client is the requestor side of GT3 GRAM.
type Client struct {
	// Credential authenticates and signs requests (a user proxy,
	// typically).
	Credential *gridcert.Credential
	// Trust validates the resource (must include the host CA).
	Trust *gridcert.TrustStore
	// Resource is the target (the in-memory stand-in for its network
	// address).
	Resource *Resource
	// ConnectConfig augments the requestor-side GSS options for the
	// step-7 MJS connection (delegation intent, expected peer,
	// limited-proxy rejection, depth caps). Credential and TrustStore
	// in it are ignored — the Client's own fields always apply.
	ConnectConfig gss.Config
}

// JobHandle identifies a submitted job.
type JobHandle struct {
	MJSHandle string
	Account   string
}

// Submit runs steps 1–6 of Figure 4: "the requestor forms a job
// description and signs it with appropriate GSI credentials", sends it to
// the resource, and receives the service reference of the created MJS.
func (c *Client) Submit(desc JobDescription) (JobHandle, error) {
	return c.SubmitContext(context.Background(), desc)
}

// SubmitContext is Submit honoring ctx: the request is not signed or
// delivered once the context ends.
func (c *Client) SubmitContext(ctx context.Context, desc JobDescription) (JobHandle, error) {
	if err := ctx.Err(); err != nil {
		return JobHandle{}, err
	}
	env := soap.NewEnvelope(ActionSubmit, desc.Encode())
	env.To = "gram://" + c.Resource.HostIdentity().CommonName()
	if err := xmlsec.SignEnvelope(env, c.Credential); err != nil {
		return JobHandle{}, err
	}
	if err := ctx.Err(); err != nil {
		return JobHandle{}, err
	}
	reply, err := c.Resource.Deliver(env)
	if err != nil {
		return JobHandle{}, err
	}
	if reply.Fault != nil {
		return JobHandle{}, reply.Fault
	}
	sr, err := decodeSubmitReply(reply.Body)
	if err != nil {
		return JobHandle{}, err
	}
	return JobHandle{MJSHandle: sr.MJSHandle, Account: sr.Account}, nil
}

// Run completes step 7 for a submitted job: connect to the MJS with
// mutual authentication, optionally delegate, and start the job.
func (c *Client) Run(h JobHandle) (*MJS, error) {
	return c.RunContext(context.Background(), h)
}

// RunContext is Run honoring ctx between the connect, delegate, and start
// steps.
func (c *Client) RunContext(ctx context.Context, h JobHandle) (*MJS, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, ok := c.Resource.LookupMJS(h.MJSHandle)
	if !ok {
		return nil, fmt.Errorf("gram: no MJS %q", h.MJSHandle)
	}
	reqCfg := c.ConnectConfig
	reqCfg.Credential = c.Credential
	reqCfg.TrustStore = c.Trust
	conn, err := m.ConnectWith(reqCfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.Job().Description.DelegateCredential {
		if err := conn.Delegate(c.Credential); err != nil {
			return nil, fmt.Errorf("gram: delegation: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := conn.Start(); err != nil {
		return nil, err
	}
	return m, nil
}

// SubmitAndRunContext is the full Figure-4 flow in one call, honoring ctx.
func (c *Client) SubmitAndRunContext(ctx context.Context, desc JobDescription) (*MJS, error) {
	h, err := c.SubmitContext(ctx, desc)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx, h)
}
