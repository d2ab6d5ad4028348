package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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

	// rotmu excludes WAL rotation (Flush) from in-flight writes: a write
	// holds the read side from log append through memory apply, so a
	// record never lands in a log generation the manifest has already
	// superseded.
	rotmu sync.RWMutex
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
	parts    []*table.Table
	replaced bool // dataset was replaced/created after the last flush: ignore manifest segments

	// epochBump counts how many times the dataset's row order restarted
	// since the last flush (replace, or drop + recreate). The dataset's
	// effective order epoch is the manifest's OrderEpoch plus this bump;
	// Flush folds it into the next manifest generation. WAL replay
	// reproduces the same bumps, so the epoch is crash-stable.
	epochBump uint64
}

// Open opens (or creates) a data directory, recovering committed state:
// the current manifest is loaded, the live WAL replayed on top, any
// torn WAL tail truncated, and orphaned files from interrupted flushes
// removed.
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
		tails:   map[string]*tail{},
		encs:    map[string]*EncodedSegment{},
		nextSeg: man.NextSeg,
	}
	walPath := filepath.Join(dir, walName(man.WalGen))
	size, err := ReplayWAL(walPath, s.applyRecord)
	if err != nil {
		return nil, err
	}
	s.wal, err = openWALForAppend(walPath, size)
	if err != nil {
		return nil, err
	}
	collectGarbage(dir, man)
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// applyRecord replays one WAL record into the in-memory tails.
func (s *Store) applyRecord(rec WalRecord) error {
	switch rec.Kind {
	case walAppend:
		s.applyAppend(rec.Dataset, rec.Table, false)
	case walReplace:
		s.applyAppend(rec.Dataset, rec.Table, true)
	case walDrop:
		s.applyDrop(rec.Dataset)
	}
	return nil
}

func (s *Store) applyAppend(name string, t *table.Table, replace bool) {
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
		tl = &tail{sch: t.Schema(), replaced: replace || s.man.dataset(name) == nil, epochBump: bump}
		s.tails[name] = tl
	case replace, tl.replaced && len(tl.parts) == 0:
		// Replace, or the first append after a drop tombstone: restart the
		// tail and keep the manifest's segments shadowed. A replace starts
		// a new row order; the post-drop restart already bumped at drop.
		bump := tl.epochBump
		if replace {
			bump++
		}
		tl = &tail{sch: t.Schema(), replaced: true, epochBump: bump}
		s.tails[name] = tl
	}
	tl.parts = append(tl.parts, t)
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

// Health reports whether the store can still accept durable writes:
// nil when open with an unpoisoned WAL, an error otherwise.
func (s *Store) Health() error {
	s.mu.RLock()
	closed, wal := s.closed, s.wal
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("storage: store is closed")
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
				rows += int64(p.NumRows())
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
		s.applyAppend(name, t, kind == walReplace)
		s.mu.Unlock()
	}
	s.rotmu.RUnlock()
	lock.Unlock()
	if err != nil {
		return err
	}
	s.mu.RLock()
	needFlush := s.flushThresholdLocked()
	s.mu.RUnlock()
	if needFlush {
		return s.Flush()
	}
	return nil
}

func (s *Store) flushThresholdLocked() bool {
	limit := s.FlushBytes
	if limit <= 0 {
		limit = DefaultFlushBytes
	}
	return s.wal.Size() >= limit
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.existsLocked(name) {
		return nil, nil, false
	}
	refs = append(refs, s.liveSegmentsLocked(name)...)
	if tl := s.tails[name]; tl != nil {
		tailParts = append(tailParts, tl.parts...)
	}
	return refs, tailParts, true
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
func (s *Store) readSnapshot(name string, run func(refs []SegmentRef, parts []*table.Table) error) error {
	for attempt := 0; ; attempt++ {
		refs, parts, ok := s.Segments(name)
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
	err = s.readSnapshot(name, func(refs []SegmentRef, parts []*table.Table) error {
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
		out, err = concatTables(sch, append(tables, parts...))
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

// Flush writes every unflushed tail into new segment files, commits a
// new manifest generation referencing them, rotates the WAL, and
// atomically swaps CURRENT. A crash anywhere in between leaves the old
// generation authoritative (new files are garbage-collected on the
// next open); after the swap the new generation is complete.
func (s *Store) Flush() error {
	s.rotmu.Lock()
	defer s.rotmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	dirty := false
	for _, tl := range s.tails {
		if len(tl.parts) > 0 || tl.replaced {
			dirty = true
			break
		}
	}
	if !dirty {
		return nil
	}
	flushStart := time.Now()
	defer func() {
		metFlushes.Inc()
		metFlushSeconds.ObserveSince(flushStart)
	}()

	next := &Manifest{Gen: s.man.Gen + 1, WalGen: s.man.WalGen + 1, NextSeg: s.nextSeg}
	// Carry forward untouched datasets and surviving segments.
	names := map[string]bool{}
	for _, dm := range s.man.Datasets {
		names[dm.Name] = true
	}
	for name := range s.tails {
		names[name] = true
	}
	newSegCache := map[string]*EncodedSegment{}
	var ordered []string
	for _, dm := range s.man.Datasets {
		ordered = append(ordered, dm.Name)
	}
	var fresh []string
	for name := range s.tails {
		if s.man.dataset(name) == nil {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh) // deterministic manifest order for new datasets
	ordered = append(ordered, fresh...)
	for _, name := range ordered {
		if !names[name] {
			continue
		}
		names[name] = false
		sch, ok := s.schemaLocked(name)
		if !ok {
			continue // dropped
		}
		dm := DatasetManifest{Name: name, Schema: sch}
		prev := s.man.dataset(name)
		tl := s.tails[name]
		if prev != nil {
			dm.OrderEpoch = prev.OrderEpoch
		}
		if tl != nil {
			dm.OrderEpoch += tl.epochBump
		}
		// Shared dictionaries: grow a writer-private clone of the live set
		// while encoding the new segment, then commit the grown set in
		// this same manifest generation — a reader either sees neither the
		// new codes nor the new entries, or both. A tombstoned dataset
		// (replace, drop + recreate) restarts with empty dictionaries
		// whose epochs supersede the old ones, so a stale reader of the
		// shadowed v3 files gets a loud epoch mismatch, never a silent
		// decode against the wrong value list.
		var dicts DictSet
		switch {
		case prev != nil && (tl == nil || !tl.replaced):
			dicts = cloneDictSet(prev.DictSet())
			if dicts == nil {
				dicts = DictSet{}
			}
		case prev != nil:
			dicts = DictSet{}
			for _, d := range prev.Dicts {
				dicts[d.Col] = &SharedDict{Col: d.Col, Epoch: d.Epoch + 1}
			}
		default:
			dicts = DictSet{}
		}
		dm.Segments = append(dm.Segments, s.liveSegmentsLocked(name)...)
		if tl != nil && len(tl.parts) > 0 {
			t, err := concatTables(sch, tl.parts)
			if err != nil {
				return err
			}
			if t.NumRows() > 0 {
				file := segName(s.nextSeg)
				s.nextSeg++
				next.NextSeg = s.nextSeg
				meta, err := WriteSegmentFileDict(s.dir, file, t, dicts, true)
				if err != nil {
					return err
				}
				dm.Segments = append(dm.Segments, SegmentRef{File: file, Meta: meta})
				newSegCache[cacheKey(file, nil)] = wrapTable(t, meta)
			}
		}
		dm.setDicts(dicts)
		next.Datasets = append(next.Datasets, dm)
	}

	// New WAL before the manifest that names it: an empty WAL file for a
	// generation nobody points at is harmless garbage on crash.
	newWal, err := CreateWAL(filepath.Join(s.dir, walName(next.WalGen)))
	if err != nil {
		return err
	}
	if err := writeManifest(s.dir, next); err != nil {
		newWal.Close()
		os.Remove(filepath.Join(s.dir, walName(next.WalGen)))
		return err
	}
	// The swap succeeded: the new generation is authoritative.
	old := s.man
	oldWal := s.wal
	s.wal = newWal
	s.man = next
	s.tails = map[string]*tail{}
	for key, es := range newSegCache {
		s.encs[key] = es
	}
	oldWal.Close()
	os.Remove(filepath.Join(s.dir, walName(next.WalGen-1)))
	if next.Gen > 1 {
		os.Remove(filepath.Join(s.dir, manifestName(next.Gen-1)))
	}
	// Segments the new generation no longer references (replace/drop
	// tombstones just committed) are dead: delete them now instead of
	// waiting for the next open's garbage collection, so a stale reader
	// fails fast with not-exist and re-snapshots.
	liveFiles := map[string]bool{}
	for _, dm := range next.Datasets {
		for _, ref := range dm.Segments {
			liveFiles[ref.File] = true
		}
	}
	purged := false
	for _, dm := range old.Datasets {
		for _, ref := range dm.Segments {
			if !liveFiles[ref.File] {
				os.Remove(filepath.Join(s.dir, ref.File))
				purged = true
			}
		}
	}
	if purged {
		// Drop dead cache entries and stop in-flight reads from
		// re-inserting them.
		for key := range s.encs {
			file, _, _ := strings.Cut(key, "?")
			if !liveFiles[file] {
				delete(s.encs, key)
			}
		}
		s.cacheGen++
	}
	return nil
}

// Close flushes tails to segments and shuts the store down.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
