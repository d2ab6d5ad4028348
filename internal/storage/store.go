package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/schema"
	"nexus/internal/table"
)

// DefaultFlushBytes is the WAL size that triggers an automatic flush of
// in-memory tails into segments.
const DefaultFlushBytes = 8 << 20

// Store is a crash-safe dataset store: every mutation hits the WAL
// (group-committed fsync) before memory, segments hold flushed history,
// and the manifest binds them. Open replays the catalog plus the WAL,
// reconstructing exactly the acknowledged state.
type Store struct {
	dir string

	// FlushBytes is the WAL size that triggers an automatic flush; 0
	// means DefaultFlushBytes. Set before concurrent use.
	FlushBytes int64

	mu      sync.RWMutex
	man     *Manifest
	wal     *WAL
	walGen  uint64                     // generation of the live WAL: man.WalGen, or later while a sealed flush is uncommitted
	tails   map[string]*tail           // unflushed rows per dataset
	encs    map[string]*EncodedSegment // segment cache, keyed by cacheKey: pages parsed but not materialized
	nextSeg uint64                     // next segment file number (flushes and compactions share it)
	closed  bool
	replica bool // replica mode: local mutations refused, manifests applied from a primary

	// cacheGen is bumped whenever compaction purges cache entries, so a
	// read that raced the purge (decoded a file the swap just deleted)
	// knows not to re-insert the dead entry. Guarded by mu.
	cacheGen uint64

	// bytesRead counts the segment-file bytes scans actually consumed;
	// the projection benchmarks report it.
	bytesRead atomic.Int64

	// dsLocks serializes WAL-write + memory-apply per dataset, so the
	// in-memory row order always matches the log's replay order. Writes
	// to different datasets still interleave — that is what group commit
	// batches into one fsync.
	dsLocks sync.Map // dataset name -> *sync.Mutex

	// rotmu excludes WAL rotation (a flush's seal) from in-flight
	// writes: a write holds the read side from log append through memory
	// apply, so the tail parts a seal records are exactly the records of
	// the log generations it retires.
	rotmu sync.RWMutex

	// flushmu is the segment writer's lock: it serializes flushes with
	// each other and with compaction merges and replicated-manifest
	// applies, so every manifest generation is built from the one before
	// it and a dictionary rebuild never interleaves with a flush encoding
	// against the old dictionaries. Appends and reads never take it.
	flushmu sync.Mutex

	// flushDone is closed when the running background flush ends (nil
	// when none runs); flushErr is the last flush's failure, cleared by
	// the next success, which Health reports while it stands. Both are
	// guarded by mu; bg counts background flushes so Close can wait.
	flushDone chan struct{}
	flushErr  error
	bg        sync.WaitGroup
}

// dsLock returns the per-dataset write lock.
func (s *Store) dsLock(name string) *sync.Mutex {
	if m, ok := s.dsLocks.Load(name); ok {
		return m.(*sync.Mutex)
	}
	m, _ := s.dsLocks.LoadOrStore(name, &sync.Mutex{})
	return m.(*sync.Mutex)
}

// tail is one dataset's rows appended since the last flush, plus its
// authoritative schema.
type tail struct {
	sch      schema.Schema
	parts    []tailPart
	replaced bool // dataset was replaced/created after the last flush: ignore manifest segments

	// epochBump counts how many times the dataset's row order restarted
	// since the last flush (replace, or drop + recreate). The dataset's
	// effective order epoch is the manifest's OrderEpoch plus this bump;
	// Flush folds it into the next manifest generation. WAL replay
	// reproduces the same bumps, so the epoch is crash-stable.
	epochBump uint64
}

// tailPart is one applied write's rows and their zone maps, computed
// once when the write is applied, so scans prune tail parts exactly as
// they prune segments.
type tailPart struct {
	t     *table.Table
	zones []ZoneMap
}

// Open opens (or creates) a data directory, recovering committed state:
// the current manifest is loaded, its WAL and every consecutive later
// generation replayed on top, in order, any torn WAL tail truncated, a
// flush that was sealed but never committed finished, and orphaned
// files from interrupted flushes removed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ckptDir), 0o755); err != nil {
		return nil, fmt.Errorf("storage: create checkpoint dir: %w", err)
	}
	man, err := readCurrentManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		man:     man,
		walGen:  man.WalGen,
		tails:   map[string]*tail{},
		encs:    map[string]*EncodedSegment{},
		nextSeg: man.NextSeg,
	}
	// A flush seals by starting the next WAL generation and commits by
	// naming it in the manifest; a crash in between leaves a chain of
	// generations, which replay in order.
	var size int64
	for gen := man.WalGen; gen == man.WalGen || fileExists(filepath.Join(dir, walName(gen))); gen++ {
		if size, err = ReplayWAL(filepath.Join(dir, walName(gen)), s.applyRecord); err != nil {
			return nil, err
		}
		s.walGen = gen
	}
	s.wal, err = openWALForAppend(filepath.Join(dir, walName(s.walGen)), size)
	if err != nil {
		return nil, err
	}
	if s.walGen != man.WalGen {
		// Finish the interrupted flush, so recovery settles on one
		// manifest and one WAL generation again. Should it fail, the
		// chain stays valid state to serve and retry from, and Health
		// reports the failure.
		_ = s.Flush()
	}
	collectGarbage(dir, s.man)
	return s, nil
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// applyRecord replays one WAL record into the in-memory tails.
func (s *Store) applyRecord(rec WalRecord) error {
	switch rec.Kind {
	case walAppend, walReplace:
		s.applyAppend(rec.Dataset, tailPart{rec.Table, ComputeZones(rec.Table)}, rec.Kind == walReplace)
	case walDrop:
		s.applyDrop(rec.Dataset)
	}
	return nil
}

func (s *Store) applyAppend(name string, p tailPart, replace bool) {
	tl := s.tails[name]
	switch {
	case tl == nil:
		// First touch since the last flush: appends extend the manifest's
		// segments, while a brand-new dataset starts from nothing. A
		// replace of an existing dataset restarts its row order.
		bump := uint64(0)
		if replace && s.man.dataset(name) != nil {
			bump = 1
		}
		tl = &tail{sch: p.t.Schema(), replaced: replace || s.man.dataset(name) == nil, epochBump: bump}
		s.tails[name] = tl
	case replace, tl.replaced && len(tl.parts) == 0:
		// Replace, or the first append after a drop tombstone: restart the
		// tail and keep the manifest's segments shadowed. Only a replace
		// of rows that exist starts a new row order: after a drop the
		// restart already bumped, just as a dataset a flush dropped from
		// the manifest restarts at its first touch — so whether a flush
		// commits between the drop and the replace, replay reproduces the
		// same epoch.
		bump := tl.epochBump
		if replace && s.existsLocked(name) {
			bump++
		}
		tl = &tail{sch: p.t.Schema(), replaced: true, epochBump: bump}
		s.tails[name] = tl
	}
	tl.parts = append(tl.parts, p)
}

func (s *Store) applyDrop(name string) {
	// A drop tombstones the manifest's segments via an empty replaced
	// tail with no schema; lookups treat it as absent. Dropping ends the
	// current row order, so the epoch bump carries into any recreation.
	bump := uint64(1)
	if tl := s.tails[name]; tl != nil {
		bump = tl.epochBump + 1
	}
	s.tails[name] = &tail{replaced: true, epochBump: bump}
}

// OrderEpoch returns the dataset's current order epoch: it increments
// whenever the dataset's row order restarts or is rewritten (replace,
// drop + recreate, compaction re-sort). Row-offset resume tokens carry
// the epoch they were minted under; a mismatch means the offset no
// longer addresses the same rows. Unknown datasets report 0.
func (s *Store) OrderEpoch(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var epoch uint64
	if dm := s.man.dataset(name); dm != nil {
		epoch = dm.OrderEpoch
	}
	if tl := s.tails[name]; tl != nil {
		epoch += tl.epochBump
	}
	return epoch
}

// Health reports whether the store can still accept durable writes and
// move them into segments: nil when open with an unpoisoned WAL and no
// failed flush standing, an error otherwise.
func (s *Store) Health() error {
	s.mu.RLock()
	closed, wal, flushErr := s.closed, s.wal, s.flushErr
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("storage: store is closed")
	}
	if flushErr != nil {
		return fmt.Errorf("storage: flush failed, unflushed rows stay in the WAL: %w", flushErr)
	}
	return wal.syncError()
}

// ManifestHealth probes the catalog on disk: it re-reads the manifest
// CURRENT names, end to end, so a torn disk, a deleted file or a
// corrupted checksum surfaces as an error rather than on the next
// restart.
func (s *Store) ManifestHealth() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("storage: store is closed")
	}
	_, err := readCurrentManifest(s.dir)
	return err
}

// exists reports whether the dataset currently exists (s.mu held).
func (s *Store) existsLocked(name string) bool {
	if tl, ok := s.tails[name]; ok {
		return len(tl.parts) > 0 || (!tl.replaced && s.man.dataset(name) != nil)
	}
	return s.man.dataset(name) != nil
}

// schemaLocked resolves the dataset's schema (s.mu held).
func (s *Store) schemaLocked(name string) (schema.Schema, bool) {
	if tl, ok := s.tails[name]; ok {
		if len(tl.parts) > 0 {
			return tl.sch, true
		}
		if tl.replaced {
			return schema.Schema{}, false
		}
	}
	if dm := s.man.dataset(name); dm != nil {
		return dm.Schema, true
	}
	return schema.Schema{}, false
}

// Schema resolves a dataset's schema.
func (s *Store) Schema(name string) (schema.Schema, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schemaLocked(name)
}

// Datasets lists dataset names with schemas and row counts.
func (s *Store) Datasets() []struct {
	Name   string
	Schema schema.Schema
	Rows   int64
} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	var out []struct {
		Name   string
		Schema schema.Schema
		Rows   int64
	}
	add := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		sch, ok := s.schemaLocked(name)
		if !ok {
			return
		}
		var rows int64
		for _, ref := range s.liveSegmentsLocked(name) {
			rows += ref.Meta.Rows
		}
		if tl := s.tails[name]; tl != nil {
			for _, p := range tl.parts {
				rows += int64(p.t.NumRows())
			}
		}
		out = append(out, struct {
			Name   string
			Schema schema.Schema
			Rows   int64
		}{name, sch, rows})
	}
	for _, dm := range s.man.Datasets {
		add(dm.Name)
	}
	for name := range s.tails {
		add(name)
	}
	return out
}

// liveSegmentsLocked returns the manifest segments still visible for a
// dataset (none when a replace/drop tombstoned them). s.mu held.
func (s *Store) liveSegmentsLocked(name string) []SegmentRef {
	if tl, ok := s.tails[name]; ok && tl.replaced {
		return nil
	}
	if dm := s.man.dataset(name); dm != nil {
		return dm.Segments
	}
	return nil
}

// Append durably appends rows to a dataset, creating it on first use.
// The schema of later appends must match the dataset's (names, kinds
// and dimension tags).
func (s *Store) Append(name string, t *table.Table) error {
	return s.write(walAppend, name, t)
}

// Replace durably replaces a dataset's contents (provider Store
// semantics).
func (s *Store) Replace(name string, t *table.Table) error {
	return s.write(walReplace, name, t)
}

func (s *Store) write(kind uint8, name string, t *table.Table) error {
	if name == "" {
		return fmt.Errorf("storage: empty dataset name")
	}
	if t == nil {
		return fmt.Errorf("storage: nil table for %q", name)
	}
	// The tail part's zone maps, computed before any lock is taken.
	part := tailPart{t, ComputeZones(t)}
	lock := s.dsLock(name)
	lock.Lock()
	s.rotmu.RLock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rotmu.RUnlock()
		lock.Unlock()
		return fmt.Errorf("storage: store is closed")
	}
	if s.replica {
		s.mu.Unlock()
		s.rotmu.RUnlock()
		lock.Unlock()
		return ErrReplicaReadOnly
	}
	if kind == walAppend {
		if sch, ok := s.schemaLocked(name); ok && !sch.Equal(t.Schema()) {
			s.mu.Unlock()
			s.rotmu.RUnlock()
			lock.Unlock()
			return fmt.Errorf("storage: append schema %v does not match dataset %q schema %v", t.Schema(), name, sch)
		}
	}
	wal := s.wal
	s.mu.Unlock()

	// WAL first — the record is durable before memory changes and before
	// the caller's ack. The per-dataset lock spans log write and memory
	// apply, so replay order and in-memory order agree; writes to other
	// datasets proceed concurrently and share the group commit's fsync.
	// The rotation read-lock pins the log generation across both steps.
	err := wal.Append(WalRecord{Kind: kind, Dataset: name, Table: t})
	if err == nil {
		s.mu.Lock()
		s.applyAppend(name, part, kind == walReplace)
		s.mu.Unlock()
	}
	s.rotmu.RUnlock()
	lock.Unlock()
	if err != nil {
		return err
	}
	s.maybeFlush()
	return nil
}

// maybeFlush starts a background flush once the live WAL reaches the
// flush threshold, unless one is already running. Only when the live
// WAL reaches twice the threshold while that flush is still in flight
// does the appender wait for it — back-pressure, so a slow disk cannot
// let the unflushed tail grow without bound.
func (s *Store) maybeFlush() {
	limit := s.FlushBytes
	if limit <= 0 {
		limit = DefaultFlushBytes
	}
	s.mu.RLock()
	size, done := s.wal.Size(), s.flushDone
	s.mu.RUnlock()
	if size < limit {
		return
	}
	if done == nil {
		s.mu.Lock()
		if done = s.flushDone; done == nil && !s.closed {
			done = make(chan struct{})
			s.flushDone = done
			s.bg.Add(1)
			go s.backgroundFlush(done)
		}
		s.mu.Unlock()
	}
	if size >= 2*limit && done != nil {
		<-done
	}
}

// backgroundFlush runs one flush off the append path. Its error is not
// lost: flush keeps it for Health until a later flush succeeds, and the
// sealed rows stay in the tails and the WAL for that flush to retry.
func (s *Store) backgroundFlush(done chan struct{}) {
	defer s.bg.Done()
	_ = s.Flush() // kept for Health by Flush itself
	s.mu.Lock()
	s.flushDone = nil
	s.mu.Unlock()
	close(done)
}

// Drop durably removes a dataset.
func (s *Store) Drop(name string) error {
	lock := s.dsLock(name)
	lock.Lock()
	defer lock.Unlock()
	s.rotmu.RLock()
	defer s.rotmu.RUnlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: store is closed")
	}
	if s.replica {
		s.mu.Unlock()
		return ErrReplicaReadOnly
	}
	wal := s.wal
	s.mu.Unlock()
	if err := wal.Append(WalRecord{Kind: walDrop, Dataset: name}); err != nil {
		return err
	}
	s.mu.Lock()
	s.applyDrop(name)
	s.mu.Unlock()
	return nil
}

// Segments returns the dataset's durable segment references (for
// zone-map pruning) and its unflushed tail parts. Either may be empty.
func (s *Store) Segments(name string) (refs []SegmentRef, tailParts []*table.Table, ok bool) {
	refs, parts, ok := s.snapshot(name)
	for _, p := range parts {
		tailParts = append(tailParts, p.t)
	}
	return refs, tailParts, ok
}

// snapshot is Segments keeping each tail part's zone maps.
func (s *Store) snapshot(name string) (refs []SegmentRef, parts []tailPart, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.existsLocked(name) {
		return nil, nil, false
	}
	refs = append(refs, s.liveSegmentsLocked(name)...)
	if tl := s.tails[name]; tl != nil {
		parts = append(parts, tl.parts...)
	}
	return refs, parts, true
}

// SharedDicts returns the dataset's live shared dictionaries (nil when
// it has none). The returned dictionaries are immutable — growth and
// rebuilds publish new objects via the manifest — so callers may hold
// them across queries, revalidating code-based state by Epoch.
func (s *Store) SharedDicts(name string) DictSet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dictsLocked(name)
}

// dictsLocked resolves the dataset's dict set (s.mu held). A tombstoned
// dataset (replace/drop since last flush) has no live dictionaries: its
// unflushed rows live in the tail, and its old segments are shadowed.
func (s *Store) dictsLocked(name string) DictSet {
	if tl, ok := s.tails[name]; ok && tl.replaced {
		return nil
	}
	if dm := s.man.dataset(name); dm != nil {
		return dm.DictSet()
	}
	return nil
}

// ReadSegment materializes one segment by manifest reference, serving
// repeat reads from the segment cache (the warm path). The cache is
// sound because segments are immutable. The dataset name resolves the
// shared dictionaries v3 pages decode through.
func (s *Store) ReadSegment(dataset string, ref SegmentRef) (*table.Table, error) {
	return s.ReadSegmentColumns(dataset, ref, nil)
}

// ReadSegmentColumns materializes only the given column positions of a
// segment (nil = every column): a v2 segment file yields just its
// header, meta block and the selected pages; a v1 file is read whole
// and projected.
func (s *Store) ReadSegmentColumns(dataset string, ref SegmentRef, positions []int) (*table.Table, error) {
	g := newWorkGroup()
	es, err := s.read(g, dataset, ref, positions)
	if err != nil {
		return nil, err
	}
	return es.materialize(g, nil)
}

// ReadSegmentEncoded reads only the given column positions of a segment
// (nil = every column) in encoded form — pages parsed and verified but
// not materialized, so predicates can run over runs, dictionary codes
// and undecoded payloads first.
func (s *Store) ReadSegmentEncoded(dataset string, ref SegmentRef, positions []int) (*EncodedSegment, error) {
	return s.read(newWorkGroup(), dataset, ref, positions)
}

// read is every segment read: the given column positions of one segment
// (nil = every column), from the cache when it holds them — under their
// own key, or picked out of the segment's all-column entry — and
// otherwise from the file, with the page work done on g and the result
// cached. Encoded views are immutable (dictionary growth is append-only
// within an epoch, and a rebuild deletes the referencing files), so
// entries never go stale; they leave only when their file does.
func (s *Store) read(g *workGroup, dataset string, ref SegmentRef, positions []int) (*EncodedSegment, error) {
	es, gen, dicts := s.lookup(dataset, ref, positions)
	if es != nil {
		metSegCacheHit.Inc()
		return es, nil
	}
	metSegCacheMiss.Inc()
	es, err := s.readFile(g, ref, positions, dicts)
	if err != nil {
		return nil, err
	}
	// Insert unless a purge ran since the lookup — inserting then would
	// resurrect an entry for a deleted file that nothing ever evicts.
	s.mu.Lock()
	if s.cacheGen == gen {
		s.encs[cacheKey(ref.File, positions)] = es
	}
	s.mu.Unlock()
	return es, nil
}

// lookup finds a read in the segment cache (nil on a miss) and returns
// the cache generation and dataset dictionaries a miss reads under.
func (s *Store) lookup(dataset string, ref SegmentRef, positions []int) (*EncodedSegment, uint64, DictSet) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	es := s.encs[cacheKey(ref.File, positions)]
	if es == nil && positions != nil {
		if full := s.encs[cacheKey(ref.File, nil)]; full != nil {
			es, _ = full.project(positions) // out of range: a miss, and the reader reports it
		}
	}
	return es, s.cacheGen, s.dictsLocked(dataset)
}

// readFile reads one segment file from disk and counts the bytes.
func (s *Store) readFile(g *workGroup, ref SegmentRef, positions []int, dicts DictSet) (*EncodedSegment, error) {
	f, err := os.Open(filepath.Join(s.dir, ref.File))
	if err != nil {
		return nil, fmt.Errorf("storage: read segment: %w", err)
	}
	defer f.Close()
	es, err := readSegmentEncoded(f, positions, dicts, g)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", ref.File, err)
	}
	mode := metBytesReadProjected
	if positions == nil {
		mode = metBytesReadFull
	}
	mode.Add(es.FileBytes)
	s.bytesRead.Add(es.FileBytes)
	return es, nil
}

// cacheKey names a read in the segment cache: the file, then the column
// positions, or "*" for every column.
func cacheKey(file string, positions []int) string {
	if positions == nil {
		return file + "?*"
	}
	b := append([]byte(file), '?')
	for i, c := range positions {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// BytesRead returns the cumulative segment-file bytes scans have read
// from disk (cache hits cost nothing). Benchmarks compare this across
// full and projected cold scans.
func (s *Store) BytesRead() int64 { return s.bytesRead.Load() }

// DropSegmentCache empties the segment cache (benchmarks use this to
// measure genuinely cold scans). Reads already in flight will not
// repopulate it — the generation bump makes their inserts no-ops.
func (s *Store) DropSegmentCache() {
	s.mu.Lock()
	s.encs = map[string]*EncodedSegment{}
	s.cacheGen++
	s.mu.Unlock()
}

// maxSwapRetries bounds how often a scan re-snapshots after losing the
// race against a compaction swap deleting its input files.
const maxSwapRetries = 3

// errNoDataset is the readSnapshot sentinel for an unknown dataset.
var errNoDataset = errors.New("storage: no such dataset")

// readSnapshot hands run one consistent (segments, tail) snapshot of a
// dataset. A concurrent compaction swap can delete a snapshotted
// segment file before run reads it (surfacing as fs.ErrNotExist), or a
// full rewrite can rebuild the shared dictionary out from under the
// snapshot's v3 segments (surfacing as a stale-dictionary epoch
// mismatch); either way the whole body re-runs over a fresh snapshot
// (the new generation references the merged files and their dictionary
// together) up to maxSwapRetries times. Every reader of segment files
// goes through this, so the retry policy lives in exactly one place.
func (s *Store) readSnapshot(name string, run func(refs []SegmentRef, parts []tailPart) error) error {
	for attempt := 0; ; attempt++ {
		refs, parts, ok := s.snapshot(name)
		if !ok {
			return errNoDataset
		}
		err := run(refs, parts)
		if err != nil && attempt < maxSwapRetries && (errors.Is(err, fs.ErrNotExist) || isStaleDict(err)) {
			continue
		}
		return err
	}
}

// Dataset materializes a whole dataset: durable segments in manifest
// order, then the unflushed tail.
func (s *Store) Dataset(name string) (*table.Table, bool, error) {
	t, _, err := s.dataset(name)
	if errors.Is(err, errNoDataset) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// dataset is Dataset also reporting how many segments it read. The
// segments are read and materialized side by side on one work group and
// concatenated in manifest order.
func (s *Store) dataset(name string) (out *table.Table, segments int, err error) {
	err = s.readSnapshot(name, func(refs []SegmentRef, parts []tailPart) error {
		sch, _ := s.Schema(name)
		tables := make([]*table.Table, len(refs), len(refs)+len(parts))
		g := newWorkGroup()
		err := g.forEach(len(refs), func(i int) error {
			es, err := s.read(g, name, refs[i], nil)
			if err == nil {
				tables[i], err = es.materialize(g, nil)
			}
			return err
		})
		if err != nil {
			return err
		}
		for _, p := range parts {
			tables = append(tables, p.t)
		}
		out, err = concatTables(sch, tables)
		segments = len(refs)
		return err
	})
	return out, segments, err
}

// concatTables concatenates parts under sch (empty table when none).
func concatTables(sch schema.Schema, parts []*table.Table) (*table.Table, error) {
	switch len(parts) {
	case 0:
		return table.Empty(sch), nil
	case 1:
		return parts[0], nil
	}
	return parts[0].Concat(parts[1:]...)
}

// sealedTail is one dataset's tail as a flush sealed it: the tail
// object, its first parts (the records of the retired WAL generations)
// and the schema, tombstone flag and epoch bump they were applied under.
type sealedTail struct {
	name     string
	tl       *tail
	parts    []tailPart
	sch      schema.Schema
	exists   bool // false: the dataset was dropped
	replaced bool
	bump     uint64

	seg   *SegmentRef     // the segment the parts were written to (nil: no rows)
	cache *EncodedSegment // its segment cache entry
	dicts DictSet         // the dataset's dictionaries after encoding them
}

// Flush makes every write acknowledged before the call durable in
// segments, in three steps. Seal, under the store lock for an instant:
// record each dirty tail's parts so far and start the next WAL
// generation. Write, under no store lock: concatenate and encode each
// sealed prefix into a new segment file. Commit, under the store lock
// for an instant: swap in the manifest generation naming the new
// segments and the new WAL, trim the sealed parts from the tails, and
// delete the retired WALs. Readers see the sealed rows in the tails
// until the commit and in the segments after it, never both. A crash
// before the CURRENT swap leaves the old generation and the WAL chain
// authoritative (Open replays the chain and finishes the flush); a
// failure leaves the sealed rows in the tails and their WAL on disk for
// the next flush, and Health reports it meanwhile. Appends that reach
// the flush threshold run this in the background; calling it waits.
func (s *Store) Flush() error {
	s.flushmu.Lock()
	defer s.flushmu.Unlock()
	seal, retired, err := s.seal()
	if err != nil || seal == nil {
		return err
	}
	return s.finishFlush(seal, retired)
}

// finishFlush writes and commits what seal sealed (flushmu held),
// keeping the outcome for Health.
func (s *Store) finishFlush(seal []sealedTail, retired uint64) error {
	start := time.Now()
	err := s.writeSealed(seal)
	if err == nil {
		err = s.commit(seal, retired)
	}
	s.mu.Lock()
	s.flushErr = err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	metFlushes.Inc()
	metFlushSeconds.ObserveSince(start)
	return nil
}

// seal records every dirty tail's parts and makes a fresh WAL
// generation the live log, returning the sealed tails (sorted by name;
// nil when there is nothing to flush) and the first retired generation.
// Writes hold rotmu's read side from log append to memory apply, so the
// sealed parts are exactly the records of the retired generations.
func (s *Store) seal() ([]sealedTail, uint64, error) {
	// The retired log is closed once the locks are released; every
	// record in it was synced before its write was acknowledged.
	var retiredWal *WAL
	defer func() {
		if retiredWal != nil {
			retiredWal.Close()
		}
	}()
	s.rotmu.Lock()
	defer s.rotmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("storage: store is closed")
	}
	seal := []sealedTail{} // non-nil: a WAL chain alone is committed too
	for name, tl := range s.tails {
		if len(tl.parts) > 0 || tl.replaced {
			sch, ok := s.schemaLocked(name)
			seal = append(seal, sealedTail{name: name, tl: tl, parts: tl.parts[:len(tl.parts):len(tl.parts)],
				sch: sch, exists: ok, replaced: tl.replaced, bump: tl.epochBump})
		}
	}
	if len(seal) == 0 && s.walGen == s.man.WalGen {
		return nil, 0, nil
	}
	sort.Slice(seal, func(i, j int) bool { return seal[i].name < seal[j].name })
	newWal, err := CreateWAL(filepath.Join(s.dir, walName(s.walGen+1)))
	if err != nil {
		s.flushErr = err
		return nil, 0, err
	}
	retiredWal = s.wal
	s.wal = newWal
	s.walGen++
	return seal, s.man.WalGen, nil
}

// writeSealed encodes each sealed prefix into a new segment file. Shared
// dictionaries grow on a writer-private clone of the live set, which the
// commit publishes in the same manifest generation as the segments —
// a reader sees either neither the new codes nor the new entries, or
// both. A tombstoned dataset (replace, drop + recreate) restarts with
// empty dictionaries whose epochs supersede the old ones, so a stale
// reader of the shadowed v3 files gets a loud epoch mismatch, never a
// silent decode against the wrong value list. On failure the files
// written so far are removed.
func (s *Store) writeSealed(seal []sealedTail) error {
	s.mu.RLock()
	man := s.man
	s.mu.RUnlock()
	for i := range seal {
		st := &seal[i]
		if !st.exists {
			continue // dropped
		}
		prev := man.dataset(st.name)
		switch {
		case prev != nil && !st.replaced:
			st.dicts = cloneDictSet(prev.DictSet())
			if st.dicts == nil {
				st.dicts = DictSet{}
			}
		case prev != nil:
			st.dicts = DictSet{}
			for _, d := range prev.Dicts {
				st.dicts[d.Col] = &SharedDict{Col: d.Col, Epoch: d.Epoch + 1}
			}
		default:
			st.dicts = DictSet{}
		}
		tables := make([]*table.Table, len(st.parts))
		for j, p := range st.parts {
			tables[j] = p.t
		}
		t, err := concatTables(st.sch, tables)
		if err == nil && t.NumRows() > 0 {
			s.mu.Lock()
			file := segName(s.nextSeg)
			s.nextSeg++
			s.mu.Unlock()
			var meta SegmentMeta
			if meta, err = WriteSegmentFileDict(s.dir, file, t, st.dicts, true); err == nil {
				st.seg, st.cache = &SegmentRef{File: file, Meta: meta}, wrapTable(t, meta)
			}
		}
		if err != nil {
			removeSegments(s.dir, seal)
			return err
		}
	}
	return nil
}

// removeSegments deletes the segment files a failed flush wrote.
func removeSegments(dir string, seal []sealedTail) {
	for _, st := range seal {
		if st.seg != nil {
			os.Remove(filepath.Join(dir, st.seg.File))
		}
	}
}

// commit publishes the flushed generation: the current manifest with
// each sealed dataset's prefix appended as its new segment (or its
// tombstone applied), continued by the WAL generation the seal started.
// The manifest is written under no store lock — flushmu keeps every
// other manifest writer out — and the in-memory swap, together with
// trimming the sealed parts from the tails, is one short critical
// section. A tail replaced or dropped since the seal is a new object:
// it keeps its parts and its tombstone, and only sheds the sealed epoch
// bump the new manifest generation now carries.
func (s *Store) commit(seal []sealedTail, retired uint64) error {
	s.mu.RLock()
	old := s.man
	next := &Manifest{Gen: old.Gen + 1, WalGen: s.walGen, NextSeg: s.nextSeg}
	s.mu.RUnlock()
	sealed := make(map[string]*sealedTail, len(seal))
	for i := range seal {
		sealed[seal[i].name] = &seal[i]
	}
	for _, dm := range old.Datasets {
		switch st := sealed[dm.Name]; {
		case st == nil:
			dm.Segments = slices.Clone(dm.Segments)
			dm.Dicts = slices.Clone(dm.Dicts)
			next.Datasets = append(next.Datasets, dm)
		case st.exists:
			next.Datasets = append(next.Datasets, st.manifest(&dm))
		}
	}
	for i := range seal {
		if st := &seal[i]; st.exists && old.dataset(st.name) == nil {
			next.Datasets = append(next.Datasets, st.manifest(nil))
		}
	}
	if err := writeManifest(s.dir, next); err != nil {
		removeSegments(s.dir, seal)
		return err
	}

	// The swap succeeded: the new generation is authoritative. Segments
	// it no longer references (replace/drop tombstones just committed)
	// are dead: they are deleted now rather than at the next open, so a
	// stale reader fails fast with not-exist and re-snapshots.
	liveFiles := map[string]bool{}
	for _, dm := range next.Datasets {
		for _, ref := range dm.Segments {
			liveFiles[ref.File] = true
		}
	}
	var dead []string
	for _, dm := range old.Datasets {
		for _, ref := range dm.Segments {
			if !liveFiles[ref.File] {
				dead = append(dead, ref.File)
			}
		}
	}
	s.mu.Lock()
	s.man = next
	for _, st := range seal {
		if st.cache != nil {
			s.encs[cacheKey(st.seg.File, nil)] = st.cache
		}
		tl := s.tails[st.name]
		if tl == st.tl {
			tl.parts = append([]tailPart(nil), tl.parts[len(st.parts):]...)
			tl.replaced = false
		}
		tl.epochBump -= st.bump
		if len(tl.parts) == 0 && !tl.replaced {
			delete(s.tails, st.name)
		}
	}
	if len(dead) > 0 {
		// Drop dead cache entries and stop in-flight reads from
		// re-inserting them.
		for key := range s.encs {
			if file, _, _ := strings.Cut(key, "?"); !liveFiles[file] {
				delete(s.encs, key)
			}
		}
		s.cacheGen++
	}
	s.mu.Unlock()

	for _, file := range dead {
		os.Remove(filepath.Join(s.dir, file))
	}
	for gen := retired; gen < next.WalGen; gen++ {
		os.Remove(filepath.Join(s.dir, walName(gen)))
	}
	if old.Gen > 0 {
		os.Remove(filepath.Join(s.dir, manifestName(old.Gen)))
	}
	return nil
}

// manifest is the sealed dataset's next manifest entry, continuing prev
// (nil for a dataset new since the last flush).
func (st *sealedTail) manifest(prev *DatasetManifest) DatasetManifest {
	dm := DatasetManifest{Name: st.name, Schema: st.sch, OrderEpoch: st.bump}
	if prev != nil {
		dm.OrderEpoch += prev.OrderEpoch
		if !st.replaced {
			dm.Segments = slices.Clone(prev.Segments)
		}
	}
	if st.seg != nil {
		dm.Segments = append(dm.Segments, *st.seg)
	}
	dm.setDicts(st.dicts)
	return dm
}

// Close flushes tails to segments and shuts the store down, after any
// background flush has finished. A failed final flush is returned, and
// the store still closes: its rows stay in the WAL for the next open.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
