// nexus-server hosts one provider engine behind the nexus wire protocol.
// Clients connect with Session.Connect or Session.ConnectTCP (or
// cmd/nexus-shell -connect), each over one multiplexed connection that
// carries its queries and stream subscriptions alike; peer servers push
// intermediates to it directly in federated plans.
//
// With -data-dir the server is durable: datasets live in a columnar
// segment store guarded by a write-ahead log, hosted stream
// subscriptions checkpoint their window state on a timer, and a restart
// — even from SIGKILL — recovers every committed row and lets durable
// subscriptions resume where they left off. A background compactor
// (-compact-interval) merges the small segments streaming ingest leaves
// behind into large ones sorted by a clustering key, tightening zone
// maps as the data ages.
//
// With -metrics-addr the server also exposes an HTTP observability
// sidecar: /metrics (Prometheus text format), /healthz (WAL writable,
// manifest readable, compactor live) and /debug/stats (JSON snapshot).
// See docs/OBSERVABILITY.md.
//
// Usage:
//
//	nexus-server -engine relational -addr 127.0.0.1:7701 -demo
//	nexus-server -engine array      -addr 127.0.0.1:7702
//	nexus-server -data-dir ./data   -addr 127.0.0.1:7705 -metrics-addr 127.0.0.1:7790
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nexus/internal/datagen"
	"nexus/internal/engines/array"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/obs"
	"nexus/internal/obs/trace"
	"nexus/internal/provider"
	"nexus/internal/replication"
	"nexus/internal/server"
	"nexus/internal/storage"
)

// version labels nexus_build_info on the metrics sidecar.
const version = "dev"

func main() {
	engine := flag.String("engine", "relational", "engine kind: relational, array, linalg, graph")
	name := flag.String("name", "", "provider name (defaults to the engine kind)")
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	demo := flag.Bool("demo", false, "preload synthetic demo datasets")
	dataDir := flag.String("data-dir", "", "durable data directory (crash-recoverable columnar store; implies a relational-class engine)")
	ckptEvery := flag.Duration("checkpoint-interval", 2*time.Second, "how often hosted durable subscriptions checkpoint their state (with -data-dir)")
	compactEvery := flag.Duration("compact-interval", time.Minute, "how often the background compactor merges small segments (with -data-dir; 0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP sidecar address for /metrics, /healthz, /debug/stats, /debug/traces and /debug/ops (empty disables)")
	traceOn := flag.Bool("trace", false, "open root spans for this server's background work (replication sync rounds); client-carried traces are always recorded")
	slowOp := flag.Duration("slow-op-threshold", 0, "log a JSON line (rate-limited) for queries/appends/subscriptions slower than this (0 disables)")
	replicaOf := flag.String("replica-of", "", "primary server address to replicate from (requires -data-dir; makes this server a read-only follower)")
	replicas := flag.String("replicas", "", "comma-separated follower addresses to monitor (primary side; unhealthy followers degrade /healthz)")
	replEvery := flag.Duration("repl-interval", 500*time.Millisecond, "replication sync/probe interval (with -replica-of or -replicas)")
	var admDefault server.TenantQuota
	flag.IntVar(&admDefault.MaxSubscriptions, "max-subs-per-tenant", 0, "default per-tenant cap on concurrent stream subscriptions (0 = unlimited)")
	flag.Float64Var(&admDefault.AppendRowsPerSec, "append-rows-per-sec", 0, "default per-tenant append rate budget in rows/sec (0 = unlimited)")
	flag.Float64Var(&admDefault.ScanRowsPerSec, "scan-rows-per-sec", 0, "default per-tenant query-result rate budget in rows/sec (0 = unlimited)")
	shedP99 := flag.Duration("shed-stall-p99", 0, "refuse NEW subscriptions while the 10s credit-stall p99 exceeds this (0 disables shedding)")
	tenantQuotas := map[string]server.TenantQuota{}
	flag.Func("tenant-quota", "per-tenant quota override, repeatable: name:subs=N,append=R,scan=R (see docs/FRONTDOOR.md)", func(v string) error {
		name, q, err := parseTenantQuota(v)
		if err != nil {
			return err
		}
		tenantQuotas[name] = q
		return nil
	})
	flag.Parse()

	if *replicaOf != "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "-replica-of requires -data-dir (replication ships segment files)")
		os.Exit(2)
	}
	if *replicaOf != "" && *demo {
		fmt.Fprintln(os.Stderr, "-replica-of is incompatible with -demo (a replica is read-only)")
		os.Exit(2)
	}

	var prov provider.Provider
	var durable *storage.Engine
	if *dataDir != "" {
		var err error
		durable, err = storage.OpenEngine(*name, *dataDir)
		if err != nil {
			log.Fatalf("open data dir: %v", err)
		}
		prov = durable
	} else {
		switch *engine {
		case "relational":
			prov = relational.New(*name)
		case "array":
			prov = array.New(*name)
		case "linalg":
			prov = linalg.New(*name)
		case "graph":
			prov = graph.New(*name)
		default:
			fmt.Fprintf(os.Stderr, "unknown engine %q (want relational, array, linalg or graph)\n", *engine)
			os.Exit(2)
		}
	}

	if *demo {
		if err := loadDemo(prov, *engine); err != nil {
			log.Fatalf("demo data: %v", err)
		}
	}

	// Tracing identity: spans this process records carry the provider
	// name, so a multi-node trace shows which server did what. The
	// enabled flag only gates roots for background work — spans for
	// requests that arrive with a trace context always record.
	trace.Default.SetService(prov.Name())
	trace.Default.SetEnabled(*traceOn)
	if *slowOp > 0 {
		trace.Ops().SetSlowOpThreshold(*slowOp)
		log.Printf("  slow-op log: ops over %v (JSON lines on stderr, rate-limited)", *slowOp)
	}

	var srv *server.Server
	var err error
	if durable != nil {
		srv, err = server.ServeWithCheckpoints(prov, *addr, durable.Backing(), *ckptEvery)
	} else {
		srv, err = server.Serve(prov, *addr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if admDefault != (server.TenantQuota{}) || len(tenantQuotas) > 0 || *shedP99 > 0 {
		srv.SetAdmission(server.AdmissionConfig{
			Default:      admDefault,
			Tenants:      tenantQuotas,
			ShedStallP99: *shedP99,
		})
		log.Printf("  admission control: default quota %+v, %d named tenant(s), shed at stall p99 > %v", admDefault, len(tenantQuotas), *shedP99)
	}
	if durable != nil {
		log.Printf("nexus durable server %q listening on %s (data dir %s)", prov.Name(), srv.Addr(), *dataDir)
		if keys, err := durable.Backing().Checkpoints(); err == nil && len(keys) > 0 {
			log.Printf("  recovered %d stream checkpoint(s): %v", len(keys), keys)
		}
	} else {
		log.Printf("nexus %s server %q listening on %s", *engine, prov.Name(), srv.Addr())
	}
	for _, ds := range prov.Datasets() {
		log.Printf("  dataset %s: %d rows %v", ds.Name, ds.Rows, ds.Schema)
	}

	// Replication wiring. A follower pulls segments + manifests from its
	// primary, serves reads from them, refuses writes, and reports its
	// sync status on the main port; a primary with -replicas probes its
	// followers and folds their health into /healthz.
	var repl *replication.Replicator
	var mon *replication.Monitor
	if *replicaOf != "" {
		durable.SetReplica(true)
		repl = replication.New(durable, replication.Config{
			Primary:  *replicaOf,
			Interval: *replEvery,
			Logf:     log.Printf,
		})
		srv.SetReplStatus(repl.Status)
		repl.Start()
		log.Printf("  replicating from %s every %v (read-only follower)", *replicaOf, *replEvery)
	}
	if *replicas != "" {
		var addrs []string
		for _, a := range strings.Split(*replicas, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			mon = replication.NewMonitor(addrs, replication.Config{Interval: *replEvery, Logf: log.Printf})
			mon.Start()
			log.Printf("  monitoring %d replica(s): %v", len(addrs), addrs)
		}
	}

	var stopCompactor func()
	if durable != nil && *compactEvery > 0 && repl == nil {
		// Datasets that hosted dataset-replay streams resume by row
		// offset must keep their storage order — the compactor's
		// clustering sort would make stored offsets skip the wrong
		// prefix. The server knows which those are; the set is memoized
		// briefly so one compaction pass does not re-read every
		// checkpoint file per dataset, yet the commit-time re-check
		// still sees near-current state. Errors veto everything: better
		// an idle pass than a blind re-sort.
		var exMu sync.Mutex
		var exSet map[string]bool // nil after a failed refresh: veto all
		var exAt time.Time
		opts := storage.CompactOptions{Exclude: func(dataset string) bool {
			exMu.Lock()
			defer exMu.Unlock()
			if exAt.IsZero() || time.Since(exAt) > 250*time.Millisecond {
				set, err := srv.ResumeSensitiveDatasets()
				if err != nil {
					// Fail safe AND cache the failure: one scan and one
					// log line per refresh window, not one per dataset.
					log.Printf("compactor: cannot determine resume-sensitive datasets, vetoing pass: %v", err)
					set = nil
				}
				exSet, exAt = set, time.Now()
			}
			return exSet == nil || exSet[dataset]
		}}
		stopCompactor = durable.StartCompactor(*compactEvery, opts, log.Printf)
		log.Printf("  background compactor: every %v", *compactEvery)
	}

	var stopMetrics func() error
	if *metricsAddr != "" {
		// Health rolls up the server's ability to keep its promises: WAL
		// still writable, on-disk catalog still readable, background
		// compactor still making passes. Memory-only servers have none of
		// those failure modes and report plain liveness.
		checks := map[string]obs.HealthCheck{}
		if durable != nil {
			checks["wal"] = durable.Health
			checks["manifest"] = durable.ManifestHealth
			checks["compactor"] = durable.CompactorHealth
		}
		if repl != nil {
			// Follower: degraded while it cannot sync from its primary.
			checks["replication"] = repl.Health
		}
		if mon != nil {
			// Primary: degraded while any follower is sick. Serving
			// continues either way — the 503 is for operators and LBs.
			checks["replicas"] = mon.Health
		}
		obs.RegisterBuildInfo(obs.Default, version)
		h := obs.NewHandler(obs.Default, checks)
		h.Handle("/debug/traces", trace.TraceHandler(trace.Default))
		h.Handle("/debug/ops", trace.OpsHandler(trace.Ops()))
		bound, stop, err := obs.ServeHandler(*metricsAddr, h)
		if err != nil {
			log.Fatalf("metrics sidecar: %v", err)
		}
		stopMetrics = stop
		log.Printf("  metrics on http://%s/metrics (also /healthz, /debug/stats, /debug/traces, /debug/ops)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if stopMetrics != nil {
		_ = stopMetrics()
	}
	if stopCompactor != nil {
		stopCompactor()
	}
	if repl != nil {
		repl.Stop()
	}
	if mon != nil {
		mon.Stop()
	}
	srv.Close()
	if durable != nil {
		if err := durable.Close(); err != nil {
			log.Printf("close data dir: %v", err)
		}
	}
}

// parseTenantQuota parses a -tenant-quota spec: "name:subs=N,append=R,scan=R"
// (each key optional).
func parseTenantQuota(spec string) (string, server.TenantQuota, error) {
	var q server.TenantQuota
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return "", q, fmt.Errorf("tenant-quota %q: want name:subs=N,append=R,scan=R", spec)
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", q, fmt.Errorf("tenant-quota %q: bad field %q", spec, kv)
		}
		var err error
		switch k {
		case "subs":
			q.MaxSubscriptions, err = strconv.Atoi(v)
		case "append":
			q.AppendRowsPerSec, err = strconv.ParseFloat(v, 64)
		case "scan":
			q.ScanRowsPerSec, err = strconv.ParseFloat(v, 64)
		default:
			err = fmt.Errorf("unknown key %q (want subs, append or scan)", k)
		}
		if err != nil {
			return "", q, fmt.Errorf("tenant-quota %q: %v", spec, err)
		}
	}
	return name, q, nil
}

func loadDemo(p provider.Provider, engine string) error {
	switch engine {
	case "relational":
		if err := p.Store("sales", datagen.Sales(1, 50000, 2000, 200)); err != nil {
			return err
		}
		if err := p.Store("customers", datagen.Customers(2, 2000)); err != nil {
			return err
		}
		return p.Store("products", datagen.Products(3, 200))
	case "array", "linalg":
		if err := p.Store("A", datagen.Matrix(4, 128, 128, "i", "k")); err != nil {
			return err
		}
		if err := p.Store("B", datagen.Matrix(5, 128, 128, "k", "j")); err != nil {
			return err
		}
		if err := p.Store("series", datagen.Series(6, 5000)); err != nil {
			return err
		}
		return p.Store("grid", datagen.Grid(7, 128, 128))
	case "graph":
		if err := p.Store("edges", datagen.ZipfGraph(8, 5000, 25000)); err != nil {
			return err
		}
		return p.Store("vertices", graph.VerticesTable(5000))
	}
	return nil
}
