package idaax

import (
	"time"

	"idaax/internal/admission"
	"idaax/internal/federation"
	"idaax/internal/ops"
	"idaax/internal/wire"
)

// This file is the serving-layer facade: the wire-protocol HTTP server
// (POST /v1/query, /v1/exec, session pooling, streaming) with admission
// control in front of it, plus the mounted read-only ops endpoints so one
// port serves both application traffic and /metrics. The protocol contract
// is docs/WIRE_PROTOCOL.md; tuning guidance is docs/OPERATIONS.md.

// ServeConfig parameterises System.ServeWire.
type ServeConfig struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// AdmissionSlots is the number of statements allowed to run concurrently.
	// 0 uses admission.DefaultSlots; negative disables admission control
	// entirely (every request runs immediately — the bench's "off" arm).
	AdmissionSlots int
	// AdmissionQueue bounds how many requests of each priority class may wait
	// for a slot before new arrivals are shed with HTTP 429 (0 = default).
	AdmissionQueue int
	// AdmissionMaxWait sheds a queued request after this long (0 = wait until
	// the client gives up).
	AdmissionMaxWait time.Duration
	// DefaultUser is the authorization id for requests that name none
	// (default "PUBLIC").
	DefaultUser string
	// IdleTimeout reaps pooled sessions unused for this long, rolling back
	// whatever transaction they left open (0 = wire.DefaultIdleTimeout;
	// negative disables reaping).
	IdleTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight statements
	// (0 = wire.DefaultDrainTimeout).
	DrainTimeout time.Duration
	// ChunkRows is the default rows-per-frame of streamed responses (0 = 512).
	ChunkRows int
	// DisableOps leaves the ops endpoints (/metrics, /healthz, /events, ...)
	// off this port; by default they are mounted next to /v1.
	DisableOps bool
}

// WireServer is a running wire-protocol server (see System.ServeWire).
type WireServer struct {
	srv *wire.Server
	ctl *admission.Controller
}

// Addr returns the bound address (useful when ServeWire was given ":0").
func (w *WireServer) Addr() string { return w.srv.Addr() }

// Draining reports whether Close has begun.
func (w *WireServer) Draining() bool { return w.srv.Draining() }

// SessionCount returns how many pooled wire sessions are open.
func (w *WireServer) SessionCount() int { return w.srv.SessionCount() }

// AdmissionStats snapshots the admission controller (zero value when
// admission is disabled).
func (w *WireServer) AdmissionStats() admission.Stats { return w.ctl.Stats() }

// Close drains in-flight statements, rolls back and releases every pooled
// session, and shuts the listener down. System.Close calls it automatically —
// before the ops servers stop and before the final durable checkpoint, so an
// acknowledged commit is never lost to a shutdown race.
func (w *WireServer) Close() error { return w.srv.Close() }

// ServeWire starts the wire-protocol server on cfg.Addr and the health
// watchdog behind it. Endpoints: POST /v1/sessions, DELETE /v1/sessions/{t},
// POST /v1/query (optionally streamed), POST /v1/exec — plus, unless
// cfg.DisableOps, the read-only ops surface (/metrics, /healthz, /readyz,
// /events, /queries, /fleet, /debug/pprof/) on the same port. System.Close
// drains and shuts the server down; closing the returned handle directly
// also works.
func (s *System) ServeWire(cfg ServeConfig) (*WireServer, error) {
	var ctl *admission.Controller
	if cfg.AdmissionSlots >= 0 {
		ctl = admission.New(admission.Config{
			Slots:    cfg.AdmissionSlots,
			MaxQueue: cfg.AdmissionQueue,
			MaxWait:  cfg.AdmissionMaxWait,
			Obs:      s.coord.Obs,
			Events:   s.coord.Events,
		})
	}
	wcfg := wire.Config{
		NewSession:   func(user string) wire.Session { return wireSession{s.coord.Session(user)} },
		Admission:    ctl,
		Obs:          s.coord.Obs,
		Events:       s.coord.Events,
		DefaultUser:  cfg.DefaultUser,
		IdleTimeout:  cfg.IdleTimeout,
		DrainTimeout: cfg.DrainTimeout,
		ChunkRows:    cfg.ChunkRows,
	}
	if !cfg.DisableOps {
		wcfg.OpsHandler = ops.NewServer("", s.opsSource()).Handler()
	}
	srv := wire.NewServer(wcfg)
	if err := srv.Start(cfg.Addr); err != nil {
		_ = srv.Close()
		return nil, err
	}
	s.coord.Watchdog.Start()
	w := &WireServer{srv: srv, ctl: ctl}
	s.opsMu.Lock()
	s.wireSrvs = append(s.wireSrvs, w)
	s.opsMu.Unlock()
	return w, nil
}

// wireSession adapts an engine session to the wire layer's interface. The
// typed rows go through untouched: the wire encoder renders them at the
// socket, so a served row is rendered exactly once.
type wireSession struct {
	*federation.Session
}

func (w wireSession) Exec(sql string) (*wire.Result, error) {
	res, err := w.Session.Exec(sql)
	if err != nil || res == nil {
		return nil, err
	}
	return &wire.Result{
		Columns:      res.Columns,
		Rows:         res.Rows,
		RowsAffected: res.RowsAffected,
		Routed:       res.Routed,
		Message:      res.Message,
	}, nil
}
