package gram

import (
	"errors"
	"fmt"

	"repro/internal/gridcert"
	"repro/internal/wire"
)

// GRIMPolicy is the content of the Grid Resource Identity Mapper
// extension embedded in an LMJFS/MJS credential (§5.3 step 5): "the
// user's Grid identity, local account name, and local policy to help the
// requestor verify that the LMJFS is appropriate for its needs."
type GRIMPolicy struct {
	// User is the grid identity the hosting environment serves.
	User gridcert.Name
	// Account is the local account the hosting environment runs in.
	Account string
	// Host is the resource's host identity.
	Host gridcert.Name
}

// Encode serialises the policy for the certificate extension.
func (g GRIMPolicy) Encode() []byte {
	return wire.NewEncoder().
		Str(g.User.String()).
		Str(g.Account).
		Str(g.Host.String()).
		Finish()
}

// DecodeGRIMPolicy parses the extension payload.
func DecodeGRIMPolicy(b []byte) (GRIMPolicy, error) {
	d := wire.NewDecoder(b)
	userStr := d.Str()
	account := d.Str()
	hostStr := d.Str()
	if err := d.Done(); err != nil {
		return GRIMPolicy{}, err
	}
	user, err := gridcert.ParseName(userStr)
	if err != nil {
		return GRIMPolicy{}, err
	}
	host, err := gridcert.ParseName(hostStr)
	if err != nil {
		return GRIMPolicy{}, err
	}
	return GRIMPolicy{User: user, Account: account, Host: host}, nil
}

// grimPolicy is the requestor-side check of Figure 4 step 7, over the
// MJS chain the handshake validated against the requestor's trust store
// (so it chains to an acceptable host certificate): the credential
// carries a GRIM policy extension, and that policy names the client's own
// grid identity — proving the MJS "is running not only on the right host
// but also in an appropriate account."
func grimPolicy(info *gridcert.ChainInfo, expectUser gridcert.Name) (GRIMPolicy, error) {
	ext, ok := info.Leaf.FindExtension(gridcert.ExtGRIMIdentity)
	if !ok {
		return GRIMPolicy{}, errors.New("gram: credential carries no GRIM policy")
	}
	pol, err := DecodeGRIMPolicy(ext.Value)
	if err != nil {
		return GRIMPolicy{}, fmt.Errorf("gram: GRIM policy: %w", err)
	}
	if !pol.Host.Equal(info.Identity) {
		return GRIMPolicy{}, fmt.Errorf("gram: GRIM policy host %q does not match credential identity %q", pol.Host, info.Identity)
	}
	if !pol.User.Equal(expectUser) {
		return GRIMPolicy{}, fmt.Errorf("gram: GRIM credential is for %q, not %q — wrong account or stolen service",
			pol.User, expectUser)
	}
	return pol, nil
}
