package gsi

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/ogsa"
)

// Server is the acceptor handle of the redesigned API: a service
// credential bound to an Environment, serving secured exchanges over a
// chosen Transport. The server's authorization pipeline (if any) gates
// every exchange before the handler runs, so the handler sees only
// authenticated, authorized calls — the paper's hosting-environment
// pipeline as an API shape.
//
//	server, _ := env.NewServer(hostCred, gsi.WithTransport(gsi.TransportGT3()))
//	ep, _ := server.Serve(ctx, "127.0.0.1:0", handler)
//	defer ep.Close()
type Server struct {
	env  *Environment
	cred *Credential
	base settings

	// Control-plane state (PR 6). src lives for the Server's lifetime
	// so metric closures registered into an external registry never
	// dangle; ctrl is the running reloader + metrics listener,
	// refcounted across live endpoints so the goroutine and socket
	// close with the last endpoint's Close.
	mu          sync.Mutex
	src         serverMetricSources
	metricsDone bool
	ctrl        *serverControl
}

// serverControl is the running control plane behind a server's
// endpoints: one reload watcher and one plaintext metrics listener,
// shared by however many endpoints the server currently serves.
type serverControl struct {
	refs     int
	reloader *Reloader
	httpSrv  *http.Server
	casSync  *casSyncer
}

// NewServer builds a Server handle. A credential is mandatory: GSI
// always authenticates the service side. Pipeline options given here
// (WithLocalPolicy, WithTrustedVO, WithGridMap, WithDecisionCache,
// WithAuditSink) assemble one authorization pipeline shared by every
// endpoint the server opens; WithAuthorizationPipeline adopts a
// prebuilt one instead. Options that contradict each other are refused
// here, before any endpoint exists.
func (e *Environment) NewServer(cred *Credential, opts ...Option) (*Server, error) {
	const op = "gsi.NewServer"
	if cred == nil {
		return nil, opErr(op, errors.New("gsi: server requires a credential"))
	}
	s := &Server{env: e, cred: cred, base: settings{transport: TransportGT2()}}
	base := &s.base
	if err := base.apply(opts); err != nil {
		return nil, opErr(op, err)
	}
	if err := base.serverCoherent(); err != nil {
		return nil, opErr(op, err)
	}
	if err := base.materializeDurable(); err != nil {
		return nil, opErr(op, err)
	}
	if base.durable != nil && base.casPublish != nil {
		// A community server with durable state journals its membership
		// and VO policy through the same log as the local trust plane.
		if err := base.durable.AttachCAS(base.casPublish); err != nil {
			return nil, opErr(op, err)
		}
	}
	if base.authzEnabled && base.authzPipeline == nil {
		base.authzPipeline = newPipeline(e, base)
	}
	base.buildTracer()
	return s, nil
}

// serverCoherent refuses option sets no endpoint of the server could
// honor, so a misconfiguration fails at construction rather than at the
// first Serve.
func (s *settings) serverCoherent() error {
	_, gt3 := s.transport.(gt3Transport)
	switch {
	case s.authzAdopted && s.assemblesPipeline():
		// Dropping the options silently would serve under weaker policy
		// than the operator wrote down.
		return errors.New("gsi: pipeline options cannot modify a prebuilt authorization pipeline; build the variant with Environment.NewAuthorizationPipeline and pass it via WithAuthorizationPipeline")
	case s.adminEnable && !gt3:
		return errors.New("gsi: the admin surface requires the GT3 transport (a hosting container to publish gsi.__admin on)")
	case s.adminEnable && !s.authzEnabled:
		return errors.New("gsi: the admin surface requires an authorization pipeline (an unauthorized control plane is refused outright)")
	case s.streamHandler != nil && gt3:
		return errors.New("gsi: a stream handler requires the GT2 transport (streams ride GT2 sessions; a GT3 session refuses OpenStream)")
	case s.casPublish != nil && !gt3:
		return errors.New("gsi: publishing a CAS bundle feed requires the GT3 transport (a hosting container to publish gsi.__cas.sync on)")
	case s.casPublish != nil && !s.authzEnabled:
		return errors.New("gsi: publishing a CAS bundle feed requires an authorization pipeline (which resource servers may read the VO's roll is policy)")
	case s.metricsAddr != "" && s.metrics == nil:
		return errors.New("gsi: a metrics listener requires a registry (WithMetrics)")
	}
	return nil
}

// Environment returns the server's environment.
func (s *Server) Environment() *Environment { return s.env }

// AuthorizationPipeline returns the server's policy decision point —
// the pipeline NewServer assembled from enforcement options, or the
// prebuilt one adopted via WithAuthorizationPipeline. Nil when the
// server enforces nothing. The pipeline is live: mutating its policy,
// gridmap, or VO trust set takes effect on the serving hot path
// through the generation counters.
func (s *Server) AuthorizationPipeline() *AuthorizationPipeline { return s.base.authzPipeline }

// Identity returns the server's grid identity.
func (s *Server) Identity() Name { return s.cred.Leaf().Subject }

// Serve starts accepting secured sessions on addr ("host:port";
// ":0"-style addresses pick an ephemeral port — read the dialable form
// from Endpoint.Addr). The endpoint stops when ctx ends or Close is
// called; in-flight handshakes and exchanges abort with the context.
func (s *Server) Serve(ctx context.Context, addr string, h Handler) (Endpoint, error) {
	const op = "gsi.Server.Serve"
	if h == nil {
		return nil, opErr(op, errors.New("gsi: nil handler"))
	}
	b := &s.base
	scfg := ServeConfig{
		Context:       b.contextConfig(s.env, s.cred),
		Handler:       h,
		StreamHandler: b.streamHandler,
		Pipeline:      b.authzPipeline,
		Tracer:        b.tracer,
	}
	wantCtrl := b.metrics != nil || b.reloadCfg != nil || b.adminEnable ||
		b.casUpstream != nil || b.casPublish != nil
	if wantCtrl {
		if err := s.acquireControl(); err != nil {
			return nil, opErr(op, err)
		}
		scfg.ConfigureContainer = s.configureContainer
	}
	ep, err := b.transport.Serve(ctx, addr, scfg)
	if err != nil {
		if wantCtrl {
			s.releaseControl()
		}
		return nil, opErr(op, err)
	}
	if wantCtrl {
		ep = &controlledEndpoint{Endpoint: ep, s: s}
	}
	return ep, nil
}

// DurableState returns the WAL-backed trust plane opened by
// WithDurableState, or nil. Mutate policy and gridmap through its
// objects — every mutation journals before it applies, so a restarted
// server resumes with identical state and generation counters.
func (s *Server) DurableState() *DurableState {
	if s.base.durable != nil {
		return s.base.durable
	}
	if s.base.authzPipeline != nil {
		return s.base.authzPipeline.DurableState()
	}
	return nil
}

// CASSyncStatus snapshots the CAS replication state: the replica's
// applied bundle version and generation plus the syncer's pull history.
// Configured is false while no control-plane endpoint with
// WithCASUpstream is serving.
func (s *Server) CASSyncStatus() CASSyncStatus {
	if cs := s.currentCASSyncer(); cs != nil {
		return cs.status()
	}
	return CASSyncStatus{}
}

// currentCASSyncer returns the live bundle syncer, nil when no control
// plane with WithCASUpstream is running.
func (s *Server) currentCASSyncer() *casSyncer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.casSync
}

// Reloader returns the live reload watcher started by WithReload, or
// nil while no control-plane endpoint is serving. It lets an operator
// (or a test) force a reload and read per-source health without going
// through the gsi.__admin port type.
func (s *Server) Reloader() *Reloader { return s.currentReloader() }

// currentReloader returns the live reload watcher, nil when no
// control plane with WithReload is running.
func (s *Server) currentReloader() *Reloader {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.reloader
}

// acquireControl brings the server's control plane up (first endpoint)
// or joins the running one, and lands the server's metric series in its
// registry — once, since re-registering fresh closures under the same
// names is a registration conflict by design.
func (s *Server) acquireControl() error {
	b := &s.base
	pipeline := b.authzPipeline
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.metrics != nil && !s.metricsDone {
		if err := registerServerMetrics(b.metrics, s.env, metricID(s.cred), pipeline, &s.src); err != nil {
			return err
		}
		s.metricsDone = true
	}
	if s.ctrl == nil {
		ctrl := &serverControl{}
		if b.reloadCfg != nil {
			r, err := newReloader(*b.reloadCfg, s.env, pipeline)
			if err != nil {
				return err
			}
			ctrl.reloader = r
		}
		if b.casUpstream != nil {
			cs, err := newCASSyncer(s.env, s.cred, pipeline.Replica(), *b.casUpstream)
			if err != nil {
				return err
			}
			ctrl.casSync = cs
		}
		if b.metricsAddr != "" {
			lis, err := net.Listen("tcp", b.metricsAddr)
			if err != nil {
				return err
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", b.metrics)
			mux.HandleFunc("/healthz", s.serveHealthz)
			// The plaintext listener faces whatever can reach the scrape
			// port: bound header/body reading and slow-client writes so a
			// stuck or hostile scraper cannot pin accept loops open.
			ctrl.httpSrv = &http.Server{
				Addr:              lis.Addr().String(),
				Handler:           mux,
				ReadHeaderTimeout: 5 * time.Second,
				ReadTimeout:       10 * time.Second,
				WriteTimeout:      30 * time.Second,
				IdleTimeout:       2 * time.Minute,
				MaxHeaderBytes:    1 << 16,
			}
			go ctrl.httpSrv.Serve(lis)
		}
		if ctrl.reloader != nil {
			s.src.setReloader(ctrl.reloader)
			ctrl.reloader.start()
		}
		if ctrl.casSync != nil {
			s.src.setCASSyncer(ctrl.casSync)
			ctrl.casSync.start()
		}
		s.ctrl = ctrl
	}
	s.ctrl.refs++
	return nil
}

// releaseControl drops one endpoint's hold on the control plane,
// tearing it down with the last.
func (s *Server) releaseControl() {
	s.mu.Lock()
	ctrl := s.ctrl
	if ctrl == nil {
		s.mu.Unlock()
		return
	}
	ctrl.refs--
	if ctrl.refs > 0 {
		s.mu.Unlock()
		return
	}
	s.ctrl = nil
	s.mu.Unlock()
	if ctrl.reloader != nil {
		ctrl.reloader.close()
	}
	if ctrl.httpSrv != nil {
		ctrl.httpSrv.Close()
	}
	if ctrl.casSync != nil {
		ctrl.casSync.close()
	}
}

// serveHealthz answers the plaintext listener's health probe: 200 while
// every watched configuration file last applied cleanly and the decision
// audit journal takes every event, 503 naming what is unhealthy
// otherwise — so a scrape target going "unhealthy" after a bad config
// push, or deciding with no audit trail, is visible to orchestration,
// not only in a counter.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	var sick []string
	if r := s.currentReloader(); r != nil {
		for _, src := range r.Status() {
			if !src.Healthy {
				sick = append(sick, src.Name+": "+src.Error)
			}
		}
	}
	if log := s.base.authzPipeline.auditLog(); log != nil {
		if err := log.JournalError(); err != nil {
			sick = append(sick, "audit journal: "+err.Error())
		}
	}
	if len(sick) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, line := range sick {
			w.Write([]byte(line + "\n"))
		}
		return
	}
	w.Write([]byte("ok\n"))
}

// configureContainer is the GT3 container hook of a control-plane
// endpoint: it folds the endpoint's conversation table into the server's
// gauges, publishes the CAS bundle feed of WithCASPublisher and, when
// WithAdmin is on, the admin port type.
func (s *Server) configureContainer(c *ogsa.Container) error {
	b := &s.base
	s.src.addConvMgr(c.ConversationManager())
	if b.casPublish != nil {
		// The sync service enforces its own channel rules; route-step
		// authorization (resource "ogsa:gsi.__cas.sync") is the
		// container's, which NewServer guaranteed has a pipeline.
		c.Publish(cas.SyncHandle, cas.NewSyncService(b.casPublish, b.authzAudit))
	}
	if !b.adminEnable {
		return nil
	}
	backend := &adminBackend{
		server:   s,
		pipeline: b.authzPipeline,
		reg:      b.metrics,
		pool:     b.adminPool,
		tracer:   b.tracer,
	}
	_, err := c.EnableAdmin(ogsa.AdminConfig{Backend: backend})
	return err
}

// controlledEndpoint ties the control plane's lifetime to the
// endpoint's: Close releases the server's reload watcher and metrics
// listener along with the transport endpoint (idempotently — Endpoint
// Close may be called more than once).
type controlledEndpoint struct {
	Endpoint
	s    *Server
	once sync.Once
}

func (e *controlledEndpoint) Close() error {
	err := e.Endpoint.Close()
	e.once.Do(e.s.releaseControl)
	return err
}
