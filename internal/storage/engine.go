package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/table"
)

// Engine is the durable column-store provider: the relational engine's
// algebra over a crash-safe Store. Cold scans read segment files
// directly, skipping segments whose zone maps cannot satisfy the
// filter; warm scans serve from materialized RAM tables. Every mutation
// (Store/Append/Drop) is WAL-durable before it is acknowledged.
type Engine struct {
	exec.Engine
	st *Store

	mu  sync.Mutex
	mat map[string]*table.Table // warm materialized datasets
	// matGen is bumped by every invalidation, so a scan that finished
	// materializing from a snapshot taken BEFORE a compaction (or other
	// mutation) invalidated the dataset does not insert its now-stale
	// table into the warm cache. Guarded by mu.
	matGen uint64

	// Scan counters (atomics), reported by benchmarks and asserted by
	// the pruning tests.
	segmentsScanned atomic.Int64
	segmentsSkipped atomic.Int64

	// Encoded execution (see encodedexec.go): how often each encoded
	// kernel served a query.
	encodedScans atomic.Int64
	encodedAggs  atomic.Int64

	// Compactor liveness: the interval StartCompactor runs at (0 when no
	// compactor is running) and the wall time of the last completed pass,
	// both unix nanos. The /healthz compactor check reads them.
	compactorEvery atomic.Int64
	compactorLast  atomic.Int64
}

var _ provider.Provider = (*Engine)(nil)

// OpenEngine opens (or creates) a durable engine over the data
// directory, recovering any committed state.
func OpenEngine(name, dir string) (*Engine, error) {
	st, err := Open(dir)
	if err != nil {
		return nil, err
	}
	return NewEngine(name, st), nil
}

// NewEngine wraps an already-open Store as a provider. Its capabilities
// are the same operator set as the in-memory relational engine's: this
// is a column store, not an array or linear-algebra system.
func NewEngine(name string, st *Store) *Engine {
	if name == "" {
		name = "durable"
	}
	e := &Engine{st: st, mat: map[string]*table.Table{}}
	caps := provider.AllOps().Without(
		core.KMatMul, core.KWindow, core.KFill, core.KElemWise, core.KTranspose,
	)
	e.Engine = exec.NewEngine("storage", name, caps, e.dataset, e.override)
	return e
}

// Backing returns the underlying durable store (checkpoints, flushes).
// (Store would collide with the provider interface's Store method.)
func (e *Engine) Backing() *Store { return e.st }

// Durable marks the provider's datasets as surviving restarts; the
// session's catalog listing reports it.
func (e *Engine) Durable() bool { return true }

// SegmentsScanned returns how many segments scans have materialized.
func (e *Engine) SegmentsScanned() int64 { return e.segmentsScanned.Load() }

// SegmentsSkipped returns how many segments zone maps pruned away.
func (e *Engine) SegmentsSkipped() int64 { return e.segmentsSkipped.Load() }

// BytesRead returns the cumulative segment-file bytes read from disk;
// projected scans read fewer of them than full scans.
func (e *Engine) BytesRead() int64 { return e.st.BytesRead() }

// Compact runs one compaction pass over the backing store (see
// Store.Compact) and invalidates the warm copies of every dataset that
// got a new generation — their row order changed under the clustering
// sort, and warm and cold scans must keep agreeing.
func (e *Engine) Compact(opts CompactOptions) (CompactStats, error) {
	stats, err := e.st.Compact(opts)
	for _, name := range stats.Datasets {
		e.invalidate(name)
	}
	return stats, err
}

// StartCompactor runs Compact on a timer until the returned stop
// function is called. logf (optional) receives a line per pass that
// merged something, and every error.
func (e *Engine) StartCompactor(every time.Duration, opts CompactOptions, logf func(format string, args ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e.compactorEvery.Store(int64(every))
	e.compactorLast.Store(time.Now().UnixNano())
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				stats, err := e.Compact(opts)
				e.compactorLast.Store(time.Now().UnixNano())
				switch {
				case err != nil:
					logf("storage %q: compaction: %v", e.Name(), err)
				case len(stats.Datasets) > 0:
					logf("storage %q: compacted %d segments into %d (%d -> %d bytes) across %v",
						e.Name(), stats.Merged, stats.Created, stats.BytesIn, stats.BytesOut, stats.Datasets)
				}
			}
		}
	}()
	return func() {
		once.Do(func() {
			e.compactorEvery.Store(0)
			close(done)
		})
	}
}

// Health reports whether the engine can still accept durable writes
// (store open, WAL unpoisoned).
func (e *Engine) Health() error { return e.st.Health() }

// ManifestHealth re-reads the on-disk catalog end to end (see
// Store.ManifestHealth).
func (e *Engine) ManifestHealth() error { return e.st.ManifestHealth() }

// CompactorHealth reports whether the background compactor, if one was
// started, is still making passes: an error when the last completed
// pass is more than three intervals old. With no compactor running it
// is trivially healthy.
func (e *Engine) CompactorHealth() error {
	every := e.compactorEvery.Load()
	if every == 0 {
		return nil
	}
	age := time.Since(time.Unix(0, e.compactorLast.Load()))
	if age > 3*time.Duration(every) {
		return fmt.Errorf("storage %q: compactor stalled: last pass %v ago (interval %v)",
			e.Name(), age.Round(time.Millisecond), time.Duration(every))
	}
	return nil
}

// DatasetOrderEpoch exposes the store's order epoch for a dataset (see
// Store.OrderEpoch); the server stamps it into dataset-replay resume
// tokens and refuses stale ones.
func (e *Engine) DatasetOrderEpoch(name string) uint64 { return e.st.OrderEpoch(name) }

// SetReplica switches the backing store into replica mode (local
// mutations refused; manifests applied from a primary instead).
func (e *Engine) SetReplica(on bool) { e.st.SetReplica(on) }

// ReplManifest implements the server's replication source: the encoded
// current manifest, optionally after flushing unflushed tails so the
// snapshot covers every committed row.
func (e *Engine) ReplManifest(flush bool) ([]byte, error) {
	if flush {
		if err := e.st.Flush(); err != nil {
			return nil, err
		}
	}
	_, raw := e.st.EncodedManifest()
	return raw, nil
}

// ReplFile serves one raw segment file for replication.
func (e *Engine) ReplFile(name string) ([]byte, error) { return e.st.SegmentFileBytes(name) }

// ReplCheckpoints serves the durable stream checkpoint set for
// replication.
func (e *Engine) ReplCheckpoints() (map[string][]byte, error) { return e.st.CheckpointSet() }

// CurrentGen exposes the store's applied manifest generation.
func (e *Engine) CurrentGen() uint64 { return e.st.CurrentGen() }

// HasSegmentFile reports whether a replicated segment already exists
// locally, so a follower only fetches what it is missing.
func (e *Engine) HasSegmentFile(name string) bool { return e.st.HasSegmentFile(name) }

// PutReplicatedSegment verifies and installs one fetched segment file.
func (e *Engine) PutReplicatedSegment(name string, data []byte) error {
	return e.st.PutReplicatedSegment(name, data)
}

// ApplyReplicatedCheckpoints mirrors the primary's durable stream
// checkpoint set locally.
func (e *Engine) ApplyReplicatedCheckpoints(set map[string][]byte) error {
	return e.st.ApplyReplicatedCheckpoints(set)
}

// ApplyReplicated installs a replicated manifest (replica side) and
// drops every warm table — the datasets under them may have changed
// wholesale.
func (e *Engine) ApplyReplicated(rawManifest []byte) error {
	if err := e.st.ApplyReplicatedManifest(rawManifest); err != nil {
		return err
	}
	e.mu.Lock()
	e.mat = map[string]*table.Table{}
	e.matGen++
	e.mu.Unlock()
	return nil
}

// invalidate forgets the warm copy of a dataset after a mutation.
func (e *Engine) invalidate(name string) {
	e.mu.Lock()
	delete(e.mat, name)
	e.matGen++
	e.mu.Unlock()
}

// DropCache forgets every warm table and the segment cache, so the next
// scan is genuinely cold (benchmarks).
func (e *Engine) DropCache() {
	e.mu.Lock()
	e.mat = map[string]*table.Table{}
	e.matGen++
	e.mu.Unlock()
	e.st.DropSegmentCache()
}

// Store implements provider.Provider: replace the dataset, durably.
func (e *Engine) Store(name string, t *table.Table) error {
	if name == "" {
		return fmt.Errorf("storage %q: empty dataset name", e.Name())
	}
	if t == nil {
		return fmt.Errorf("storage %q: nil table for %q", e.Name(), name)
	}
	if err := e.st.Replace(name, t); err != nil {
		return err
	}
	e.invalidate(name)
	return nil
}

// Append durably appends rows to a dataset (creating it on first use) —
// the streaming-ingest path that Store's replace semantics cannot
// express.
func (e *Engine) Append(name string, t *table.Table) error {
	if err := e.st.Append(name, t); err != nil {
		return err
	}
	e.invalidate(name)
	return nil
}

// Drop implements provider.Provider.
func (e *Engine) Drop(name string) {
	if err := e.st.Drop(name); err == nil {
		e.invalidate(name)
	}
}

// Flush forces unflushed tails into segments (tests and shutdown).
func (e *Engine) Flush() error { return e.st.Flush() }

// Close flushes and closes the underlying store.
func (e *Engine) Close() error { return e.st.Close() }

// DatasetSchema implements provider.Provider.
func (e *Engine) DatasetSchema(name string) (schema.Schema, bool) {
	return e.st.Schema(name)
}

// Datasets implements provider.Provider.
func (e *Engine) Datasets() []provider.DatasetInfo {
	ds := e.st.Datasets()
	out := make([]provider.DatasetInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, provider.DatasetInfo{Name: d.Name, Schema: d.Schema, Rows: d.Rows})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// load resolves a scan: warm RAM copy if present, otherwise materialize
// from one consistent segments+tail snapshot (via Store.readSnapshot,
// which retries when a compaction swap deletes a file under it) and keep
// the copy warm — unless an invalidation ran while materializing, in
// which case the stale table is returned for this query but not cached.
func (e *Engine) load(name string) (*table.Table, error) {
	e.mu.Lock()
	t, ok := e.mat[name]
	gen := e.matGen
	e.mu.Unlock()
	if ok {
		return t, nil
	}
	out, segments, err := e.st.dataset(name)
	if err != nil {
		return nil, err
	}
	e.countSegments(segments, 0)
	e.mu.Lock()
	if e.matGen == gen {
		e.mat[name] = out
	}
	e.mu.Unlock()
	return out, nil
}

// dataset is load as the runtime's dataset resolver. A read error shows
// here only as an unknown dataset, so override loads a bare scan's
// dataset first and reports the error itself.
func (e *Engine) dataset(name string) (*table.Table, bool) {
	t, err := e.load(name)
	return t, err == nil
}

// override is the engine's Override hook: it implements the direct
// cold-scan path. A stack of Filter/Project nodes over a Scan of a cold
// dataset (planner.AnalyzeScanAccess) reads only the segments whose zone
// maps can satisfy the filter conjuncts, and only the column pages the
// stack references — segment-level column projection threaded down into
// the file reader. Everything else — and anything already warm in RAM —
// falls through to the generic runtime.
func (e *Engine) override(n core.Node, env *exec.Env, rec exec.RecFunc) (*table.Table, bool, error) {
	if t, ok, err := e.encodedAgg(n); ok || err != nil {
		return t, ok, err
	}
	acc, ok := planner.AnalyzeScanAccess(n)
	if !ok {
		return nil, false, nil
	}
	if _, isScan := n.(*core.Scan); isScan {
		// Bare full-width scan: load and warm the dataset here, where a
		// read error can be returned as itself; the generic path then
		// serves the warm copy.
		if _, err := e.load(acc.Scan.Dataset); err != nil && !errors.Is(err, errNoDataset) {
			return nil, false, err
		}
		return nil, false, nil
	}
	if len(acc.Preds) == 0 && acc.Cols == nil {
		return nil, false, nil // nothing to prune, nothing to project
	}
	e.mu.Lock()
	_, warm := e.mat[acc.Scan.Dataset]
	e.mu.Unlock()
	if warm {
		return nil, false, nil // RAM scan: nothing to win on disk
	}
	narrow, ok, err := e.accessTable(acc)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil // unknown dataset or schema drift: generic path reports it
	}
	lit, err := core.NewLiteral(narrow)
	if err != nil {
		return nil, false, err
	}
	rebuilt, err := substituteScan(n, lit)
	if err != nil {
		return nil, false, err
	}
	t, err := rec(rebuilt, env)
	return t, true, err
}

// substituteScan rebuilds a Filter/Project stack with its Scan leaf
// replaced by the materialized literal; the nodes above re-run schema
// inference, so a projection mistake fails loudly instead of silently
// returning wrong columns.
func substituteScan(n core.Node, lit core.Node) (core.Node, error) {
	if _, ok := n.(*core.Scan); ok {
		return lit, nil
	}
	kids := n.Children()
	if len(kids) != 1 {
		return nil, fmt.Errorf("storage: cannot substitute scan under %T", n)
	}
	nk, err := substituteScan(kids[0], lit)
	if err != nil {
		return nil, err
	}
	return n.WithChildren([]core.Node{nk})
}

// accessTable materializes the slice of a dataset a Filter/Project
// stack needs: segments and unflushed tail parts surviving their zone
// maps under acc.Preds, each read with only the columns in acc.Cols
// (nil = all). The surviving segments are fetched, verified,
// parsed, filtered and materialized side by side on one work group and
// concatenated in manifest order. Store.readSnapshot supplies the
// consistent snapshot and the retry when a compaction swap deletes a
// file mid-read.
func (e *Engine) accessTable(acc planner.ScanAccess) (*table.Table, bool, error) {
	name := acc.Scan.Dataset
	var out *table.Table
	unservable := false // schema drift: let the generic path report it
	err := e.st.readSnapshot(name, func(refs []SegmentRef, parts []tailPart) error {
		sch, positions, outSch, ok := e.resolve(acc)
		if !ok {
			unservable = true
			return nil
		}
		// Encoded pre-filter: evaluate the conjuncts over the pages and
		// materialize only survivors. The stack above re-runs the full
		// predicates, so this is safe even when acc.Preds is not the whole
		// filter.
		live, skipped := pruneSegments(sch, refs, acc.Preds)
		tables := make([]*table.Table, len(live), len(live)+len(parts))
		g := newWorkGroup()
		err := g.forEach(len(live), func(i int) error {
			es, err := e.st.read(g, name, live[i], positions)
			switch {
			case err != nil:
			case len(acc.Preds) > 0:
				tables[i], err = encodedFilterTable(g, es, acc.Preds)
			default:
				tables[i], err = es.materialize(g, nil)
			}
			return err
		})
		if err != nil {
			return err
		}
		if len(acc.Preds) > 0 {
			e.encodedScans.Add(int64(len(live)))
			metEncodedScans.Add(int64(len(live)))
		}
		e.countSegments(len(live), skipped)
		for _, p := range parts {
			if !segMayMatch(sch, p.zones, acc.Preds) {
				continue
			}
			t := p.t
			if positions != nil {
				t = t.Project(positions)
			}
			tables = append(tables, t)
		}
		out, err = concatTables(outSch, tables)
		return err
	})
	if errors.Is(err, errNoDataset) || unservable {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// resolve maps the columns a scan fragment reads onto the dataset's
// current schema sch: their positions (nil when acc.Cols is nil: every
// column) and the schema those positions read. ok is false — the generic
// path must serve the fragment, and report what is wrong — when the
// dataset's schema no longer matches the plan's, a column is gone, or a
// conjunct's column is not among those read.
func (e *Engine) resolve(acc planner.ScanAccess) (sch schema.Schema, positions []int, read schema.Schema, ok bool) {
	sch, _ = e.st.Schema(acc.Scan.Dataset)
	if !sch.Equal(acc.Scan.Schema()) {
		return sch, nil, sch, false
	}
	read = sch
	if acc.Cols != nil {
		positions = make([]int, 0, len(acc.Cols))
		for _, c := range acc.Cols {
			i := sch.IndexOf(c)
			if i < 0 {
				return sch, nil, sch, false
			}
			positions = append(positions, i)
		}
		read = sch.Project(positions)
	}
	for _, p := range acc.Preds {
		if read.IndexOf(p.Col) < 0 {
			return sch, nil, sch, false
		}
	}
	return sch, positions, read, true
}

// pruneSegments returns the segments whose zone maps can satisfy every
// predicate, in manifest order, and how many were excluded.
func pruneSegments(sch schema.Schema, refs []SegmentRef, preds []planner.ScanPred) (live []SegmentRef, skipped int) {
	live = make([]SegmentRef, 0, len(refs))
	for _, ref := range refs {
		if segMayMatch(sch, ref.Meta.Zones, preds) {
			live = append(live, ref)
		}
	}
	return live, len(refs) - len(live)
}

// countSegments records one read's pruning outcome in the engine's
// counters and the process metrics.
func (e *Engine) countSegments(scanned, skipped int) {
	e.segmentsScanned.Add(int64(scanned))
	e.segmentsSkipped.Add(int64(skipped))
	metSegScanned.Add(int64(scanned))
	metSegPruned.Add(int64(skipped))
}

// segMayMatch tests every predicate against a segment's or a tail
// part's zone maps; a single impossible conjunct excludes the whole
// part.
func segMayMatch(sch schema.Schema, zones []ZoneMap, preds []planner.ScanPred) bool {
	for _, p := range preds {
		i := sch.IndexOf(p.Col)
		if i < 0 || i >= len(zones) {
			continue // unknown column: cannot prune on it
		}
		if !zones[i].MayMatch(p.Op, p.Val) {
			return false
		}
	}
	return true
}
