package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"idaax"
	"idaax/internal/admission"
	"idaax/internal/shard"
	"idaax/internal/wal"
	"idaax/internal/wire"
)

const (
	// clientCount is fixed: the sandbox has two cores, and every workload is
	// a closed loop of two callers that each wait for their reply.
	clientCount = 2
	benchUser   = "SYSADM"
	// streamChunkRows is the chunk_rows of streamed responses.
	streamChunkRows = 512
	// buildDir holds everything a run leaves behind; .gitignore names it.
	buildDir = ".bench_build"
)

// env is one stood-up system under test: the fleet, its wire server on
// loopback, and the closed-loop clients.
type env struct {
	wl   *workload
	sc   scale
	seed int64

	sys     *idaax.System
	srv     *idaax.WireServer
	router  *shard.Router
	dataDir string // durable workloads only
	clients []*client

	loaderRowsPerS float64
	userBytes      int64 // CSV bytes loaded at set-up
}

// config is the fleet every workload runs on: three members, one slice each
// (a statement's parallelism is its shard fan-out, as in E17). With a data
// directory it is durable, fsync on every commit, and checkpoints often
// enough that several happen in a run.
func (e *env) config() idaax.Config {
	cfg := idaax.Config{
		AnalyticsPublic: true,
		Accelerators:    []idaax.AcceleratorConfig{{Name: "M0", Slices: 1}, {Name: "M1", Slices: 1}, {Name: "M2", Slices: 1}},
	}
	if e.dataDir != "" {
		cfg.DataDir = e.dataDir
		cfg.FsyncPolicy = "always"
		cfg.CheckpointWALBytes = 16 << 20
	}
	return cfg
}

// setUp builds the system, loads the workload's data, starts the wire server
// and connects the clients; it returns once each client has had one statement
// answered, which is where setup_s stops.
func setUp(wl *workload, sc scale, seed int64, runDir string) (*env, error) {
	if wl.resize != nil {
		sc = wl.resize(sc)
	}
	e := &env{wl: wl, sc: sc, seed: seed}
	if wl.durable {
		dir, err := os.MkdirTemp(runDir, "data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
	}
	if err := e.open(); err != nil {
		e.close()
		return nil, err
	}
	if err := wl.load(e); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := e.serve(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) open() error {
	sys, err := idaax.OpenDurable(e.config())
	if err != nil {
		return err
	}
	e.sys = sys
	e.router, err = sys.Coordinator().ShardGroup("SHARDS")
	return err
}

func (e *env) serve() error {
	srv, err := e.sys.ServeWire(idaax.ServeConfig{
		Addr:        "127.0.0.1:0",
		DefaultUser: benchUser,
		IdleTimeout: -1,
		DisableOps:  true,
	})
	if err != nil {
		return err
	}
	e.srv = srv
	e.clients = nil
	for i := 0; i < clientCount; i++ {
		c := newClient(srv.Addr())
		e.clients = append(e.clients, c)
		if _, err := c.wc.Query("SELECT COUNT(*) FROM customers"); err != nil {
			return fmt.Errorf("client %d first statement: %w", i, err)
		}
	}
	return nil
}

// loadCSV loads one table through System.Load, the path set-up is timed on.
func (e *env) loadCSV(table string, csv *bytes.Buffer) error {
	n := csv.Len()
	rep, err := e.sys.Load(table, csv, idaax.LoadOptions{BatchSize: 10000})
	if err != nil {
		return err
	}
	e.userBytes += int64(n)
	if table == "orders" || e.loaderRowsPerS == 0 {
		e.loaderRowsPerS = float64(rep.RowsLoaded) / rep.Elapsed.Seconds()
	}
	return nil
}

func (e *env) exec(sqls ...string) error {
	s := e.sys.AdminSession()
	for _, sql := range sqls {
		if _, err := s.Exec(sql); err != nil {
			return fmt.Errorf("%s: %w", clip(sql), err)
		}
	}
	return nil
}

// reopen closes the durable system and recovers it from its directory,
// returning how long OpenDurable took.
func (e *env) reopen() (time.Duration, error) {
	e.disconnect()
	if err := e.sys.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	if err := e.open(); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	return time.Since(t0), nil
}

func (e *env) disconnect() {
	for _, c := range e.clients {
		c.tr.CloseIdleConnections()
	}
	e.clients = nil
}

func (e *env) close() {
	e.disconnect()
	if e.sys != nil {
		_ = e.sys.Close() // the run is over; its data directory is deleted next
	}
	if e.dataDir != "" {
		_ = os.RemoveAll(e.dataDir)
	}
}

// diskBytes sums the durable store's files (the sampler reads it after each
// checkpoint).
func (e *env) diskBytes() int64 {
	var total int64
	_ = filepath.Walk(e.dataDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// client is one closed-loop caller: its own transport and socket, like a
// remote client, with the socket's bytes counted in both directions.
type client struct {
	wc  *wire.Client
	tr  *http.Transport
	net *netBytes
}

type netBytes struct{ sent, received atomic.Int64 }

type countingConn struct {
	net.Conn
	n *netBytes
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.received.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.sent.Add(int64(n))
	return n, err
}

func newClient(addr string) *client {
	nb := &netBytes{}
	var d net.Dialer
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, a)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, nb}, nil
		},
	}
	hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
	return &client{wc: wire.NewClient(addr, hc), tr: tr, net: nb}
}

// snapshot is every public counter the ledger reads, taken before and after
// a measured interval.
type snapshot struct {
	at       time.Time
	shard    idaax.ShardGroupStats
	adm      admission.Stats
	wal      wal.Stats
	ckpts    int64
	mem      runtime.MemStats
	cpu      time.Duration
	sent     int64
	received int64
}

func (e *env) snapshot() snapshot {
	var s snapshot
	s.shard, _ = e.sys.ShardGroupStats("") // the group exists: open() resolved it
	s.adm = e.srv.AdmissionStats()
	if st := e.sys.Coordinator().Store(); st != nil {
		s.wal = st.WALStats()
		s.ckpts = st.Checkpoints()
	}
	for _, c := range e.clients {
		s.sent += c.net.sent.Load()
		s.received += c.net.received.Load()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s
}

func clip(sql string) string {
	if len(sql) > 120 {
		return sql[:120] + "..."
	}
	return sql
}
