// Command molocd serves MoLoc localization over HTTP: it builds a
// deployment (plan, radio map, crowdsourced motion database) and exposes
// the tracking-session API of internal/server, with the session-TTL
// sweeper running and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	molocd [-addr :8080] [-stream-addr :8081] [-plan office|mall|museum] [-seed N]
//	       [-aps N] [-horus] [-train N] [-session-ttl 15m] [-max-sessions N]
//	       [-workers N] [-shards N] [-paced] [-gate] [-drain 10s] [-retrain 30s]
//	       [-data-dir DIR] [-fsync always|interval|none] [-fsync-every 100ms]
//	       [-follow leader:port] [-repl-lag-max 10s] [-pprof addr]
//
// The motion database retrains online: POST /v1/observations feeds the
// background retrainer, which republishes the compiled motion index
// every -retrain period. -pprof serves net/http/pprof on a separate
// debug listener (never the public one), so ingest/recompile CPU
// profiles can be captured in production.
//
// With -data-dir set, ingestion and training are crash-safe: every
// acknowledged observation batch is in a write-ahead log before its 202,
// each retrain checkpoints the motion database atomically, and a
// restart recovers checkpoint + WAL tail with nothing acknowledged
// lost. -fsync picks the WAL durability policy (always = fsync per
// batch; interval = group commit every -fsync-every; none = leave it to
// the OS). /v1/healthz reports the degradation ladder: "ok",
// "degraded-fingerprint-only" (durability impaired, fixes keep flowing
// on the fingerprint-only path), or "recovering".
//
// -stream-addr opens a second listener speaking the binary streaming
// protocol (internal/wire): phones hold one persistent connection,
// pipeline length-prefixed observation/IMU/scan/tick frames under a
// credit window, and get each observation batch acknowledged only after
// its WAL record's covering fsync — with one group-committed fsync
// amortized over every stream that raced in. molocctl stream speaks
// it.
//
// -follow runs this molocd as a read replica: it dials the named
// leader's -stream-addr listener, bootstraps from the leader's newest
// checkpoint, and replays the leader's WAL into its own -data-dir —
// serving sessions and fixes off the replicated motion database while
// answering POST /v1/observations with 409 (the leader owns writes).
// /v1/healthz gains "role" and replication lag fields; a follower more
// than -repl-lag-max behind serves fingerprint-only fixes until it
// catches up. POST /v1/admin/promote (molocctl promote) turns the
// replica into a leader that accepts ingest, with nothing the old
// leader acknowledged lost.
//
// -paced flips every session to server pacing: instead of clients
// POSTing /tick, the server ticks each session at its tracker
// interval: every -wheel-slot period each worker sweeps its paced
// sessions and ticks the due ones off one motion-index snapshot load.
// Clients read paced fixes with GET /v1/sessions/{id}; the stream
// listener sends none unasked. Individual sessions opt in with
// {"paced":true} at create regardless of the flag. -shards sets the
// session-registry stripe count (default: one per worker).
//
// Try it:
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"height_m":1.71,"weight_kg":68}'
//	curl -s -X POST localhost:8080/v1/observations -d '{"observations":[{"from":1,"to":2,"rlm":{"dir":90,"off":5}}]}'
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/metricsz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"moloc/internal/core"
	"moloc/internal/fingerprint"
	"moloc/internal/floorplan"
	"moloc/internal/server"
	"moloc/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "molocd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		streamAddr  = flag.String("stream-addr", "", "binary streaming-ingest listener address (empty = off)")
		planName    = flag.String("plan", "office", "floor plan: office, mall, or museum")
		seed        = flag.Int64("seed", 3, "world seed")
		aps         = flag.Int("aps", 0, "number of APs to use (0 = all)")
		horus       = flag.Bool("horus", false, "use the probabilistic (Horus-style) radio map")
		bundle      = flag.String("bundle", "", "serve a pre-built deployment bundle (see molocsim -export) instead of building")
		train       = flag.Int("train", 0, "crowdsourced training traces to build with (0 = default)")
		sessionTTL  = flag.Duration("session-ttl", server.DefaultSessionTTL, "idle session eviction deadline")
		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "live session cap (429 beyond)")
		workers     = flag.Int("workers", 0, "data-plane worker pool size (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 0, "session-registry lock stripes (0 = workers)")
		paced       = flag.Bool("paced", false, "server-pace every session: the server ticks it instead of client tick requests")
		wheelSlot   = flag.Duration("wheel-slot", server.DefaultWheelSlotDur, "period of the server-paced sweeps; shorter periods tick sessions sooner after their intervals end, at more sweeps")
		gate        = flag.Bool("gate", false, "reachability-gate steady-state candidate scans (per-fix cost bounded by motion-DB adjacency, not map size)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		retrain     = flag.Duration("retrain", server.DefaultRetrainInterval, "online-retrain period for queued observations")
		dataDir     = flag.String("data-dir", "", "durability directory: observation WAL + motion-DB checkpoints (empty = in-memory only)")
		fsync       = flag.String("fsync", "always", "WAL durability policy: always, interval, or none")
		fsyncEvery  = flag.Duration("fsync-every", wal.DefaultSyncEvery, "group-commit window under -fsync interval")
		follow      = flag.String("follow", "", "run as a read replica following the leader's stream listener at this host:port (requires -data-dir)")
		replLagMax  = flag.Duration("repl-lag-max", server.DefaultReplLagMax, "replication lag beyond which a follower serves fingerprint-only fixes")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate debug address (empty = off)")
	)
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	opts := server.Options{
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		Workers:         *workers,
		Shards:          *shards,
		PaceAll:         *paced,
		WheelSlotDur:    *wheelSlot,
		Gate:            *gate,
		RetrainInterval: *retrain,
		DataDir:         *dataDir,
		FsyncPolicy:     policy,
		FsyncInterval:   *fsyncEvery,
		FollowAddr:      *follow,
		ReplLagMax:      *replLagMax,
	}
	if *follow != "" && *dataDir == "" {
		return errors.New("-follow requires -data-dir: a replica keeps a durable copy of the leader's history")
	}

	var srv *server.Server
	if *bundle != "" {
		b, err := core.LoadBundle(*bundle)
		if err != nil {
			return err
		}
		srv, err = server.NewWithOptions(b.Plan, b.FDB, b.FDB.NumAPs(), b.MDB, b.Motion, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "molocd serving bundle %s on %s (%d locations, %d APs)\n",
			*bundle, *addr, b.Plan.NumLocs(), b.FDB.NumAPs())
	} else {
		cfg := core.NewConfig()
		cfg.Seed = *seed
		if *train > 0 {
			cfg.NumTrainTraces = *train
		}
		switch *planName {
		case "office":
		case "mall":
			cfg.Plan = floorplan.Mall()
			cfg.AdjDist = floorplan.MallAdjDist
		case "museum":
			cfg.Plan = floorplan.Museum()
			cfg.AdjDist = floorplan.MuseumAdjDist
		default:
			return fmt.Errorf("unknown plan %q", *planName)
		}

		fmt.Fprintf(os.Stderr, "building deployment (plan=%s seed=%d)...\n", *planName, *seed)
		sys, err := core.Build(cfg)
		if err != nil {
			return err
		}
		apIdx := sys.AllAPs()
		if *aps > 0 && *aps < len(apIdx) {
			apIdx = apIdx[:*aps]
		}
		dep, err := sys.Deploy(apIdx)
		if err != nil {
			return err
		}
		var src fingerprint.CandidateSource = dep.FDB
		if *horus {
			src = dep.GDB
		}
		// The walk graph gates online ingest: observations between
		// non-adjacent locations are dropped at the door. Bundles carry
		// no graph, so bundle serving trains unfiltered.
		opts.TrainGraph = sys.Graph
		srv, err = server.NewWithOptions(sys.Plan, src, len(apIdx), sys.MDB, cfg.Motion, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "molocd listening on %s (%d locations, %d APs, horus=%v)\n",
			*addr, sys.Plan.NumLocs(), len(apIdx), *horus)
	}

	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "molocd: durability on (data-dir=%s fsync=%s); serving state %q\n",
			*dataDir, *fsync, srv.ServingState())
	}
	if *follow != "" {
		fmt.Fprintf(os.Stderr, "molocd: read replica following %s (lag window %s); POST /v1/admin/promote to take over\n",
			*follow, *replLagMax)
	}
	if *pprofAddr != "" {
		//lint:ignore waitleak the debug listener lives for the process; nothing joins it
		go servePprof(*pprofAddr)
	}
	return serve(srv, *addr, *streamAddr, *drain)
}

// servePprof serves the net/http/pprof handlers on their own mux and
// listener. The debug surface never shares the public listener: the
// handlers are registered explicitly on a fresh mux (not the implicit
// http.DefaultServeMux registration), so profiling cannot leak onto the
// API address by accident.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "molocd: pprof debug listener on %s\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "molocd: pprof listener:", err)
	}
}

// serve runs the HTTP server with the session sweeper attached and
// drains gracefully on SIGINT/SIGTERM: stop accepting new connections,
// let in-flight requests finish (bounded by the drain timeout), then
// stop the sweeper.
func serve(srv *server.Server, addr, streamAddr string, drain time.Duration) error {
	srv.Start()
	defer srv.Close()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	// The streaming plane gets its own listener; srv.Close (deferred
	// above) stops the accept loop and severs live stream connections.
	streamErrc := make(chan error, 1)
	if streamAddr != "" {
		ln, err := net.Listen("tcp", streamAddr)
		if err != nil {
			return fmt.Errorf("stream listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "molocd: binary stream listener on %s\n", streamAddr)
		go func() { streamErrc <- srv.ServeStreams(ln) }()
	}

	select {
	case err := <-errc:
		return err // bind failure or unexpected listener exit
	case err := <-streamErrc:
		return fmt.Errorf("stream listener: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "molocd: signal received, draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "molocd: drained, exiting")
	return nil
}
