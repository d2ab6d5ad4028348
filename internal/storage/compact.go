package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nexus/internal/schema"
	"nexus/internal/table"
)

// Background compaction. Streaming ingest and small appends leave a
// spray of little segment files behind (each Flush seals whatever the
// WAL accumulated); every cold scan then pays per-file open/decode
// overhead, and zone maps stay loose because each small segment spans
// whatever rows happened to arrive together. Compact merges a dataset's
// small segments into one large segment sorted by a clustering key, so
// zone maps become tight value ranges and range predicates prune most
// of the data. The swap is registered as a new manifest generation
// through the same atomic CURRENT protocol flushes use: a crash at any
// instant leaves either the pre-compaction or the post-compaction
// generation fully readable, and the loser's files are orphans the next
// Open garbage-collects.
//
// Compaction never touches the WAL or the unflushed tails — it only
// rewrites already-sealed segments — so it runs concurrently with
// writes. The merge (read, sort, write the new segment) happens outside
// the store lock, under the segment writer's lock it shares with
// flushes; the commit re-validates that every input segment is still
// live and aborts harmlessly if a replace or drop raced it.

// Compaction defaults: segments smaller than DefaultCompactTargetBytes
// are merge candidates once DefaultCompactMinSegments of them exist.
const (
	DefaultCompactTargetBytes = 4 << 20
	DefaultCompactMinSegments = 2
)

// CompactOptions tunes a compaction pass. The zero value uses the
// defaults and clusters every dataset by its first column.
type CompactOptions struct {
	// TargetBytes: segments at least this large are left alone; smaller
	// ones are merged, and the merged output is re-chunked into segments
	// of roughly this size (zone maps prune at segment granularity, so
	// one monster segment would trade pruning away for fewer files).
	// 0 means DefaultCompactTargetBytes.
	TargetBytes int64
	// MinSegments: a dataset is compacted only when it has at least this
	// many small segments (merging one file into itself is wasted I/O).
	// 0 means DefaultCompactMinSegments.
	MinSegments int
	// ClusterBy maps dataset names to the column the merged rows are
	// sorted by. Datasets not listed (or listed with a column the schema
	// lacks) cluster by their first column.
	ClusterBy map[string]string
	// Exclude, when non-nil, vetoes compaction per dataset. The server
	// uses it to protect datasets that durable dataset-replay
	// subscriptions resume by row offset: compaction re-sorts rows, so
	// a stored offset would skip the wrong prefix afterwards.
	Exclude func(dataset string) bool
}

func (o CompactOptions) targetBytes() int64 {
	if o.TargetBytes <= 0 {
		return DefaultCompactTargetBytes
	}
	return o.TargetBytes
}

func (o CompactOptions) minSegments() int {
	if o.MinSegments <= 0 {
		return DefaultCompactMinSegments
	}
	return o.MinSegments
}

// CompactStats reports what one compaction pass did.
type CompactStats struct {
	Datasets []string // datasets that got a new, merged generation
	Merged   int      // small segments replaced
	Created  int      // merged segments written in their place
	BytesIn  int64    // file bytes of the replaced segments
	BytesOut int64    // file bytes of the merged segments written
}

// Compact runs one compaction pass over every dataset: for each one
// with at least MinSegments segments smaller than TargetBytes, merge
// them, sort the rows by the clustering key, re-chunk the result into
// ~TargetBytes segments (consecutive key ranges with tight zone maps),
// and commit the swap as a new manifest generation. Safe to call
// concurrently with reads and writes; datasets that race a replace or
// drop are skipped. Idempotent at the fixed point: a pass that cannot
// strictly reduce a dataset's segment count leaves it untouched.
func (s *Store) Compact(opts CompactOptions) (CompactStats, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return CompactStats{}, fmt.Errorf("storage: store is closed")
	}
	if s.replica {
		// A replica's generations belong to the primary; compacting
		// locally would fork the catalog and break every future apply.
		s.mu.RUnlock()
		return CompactStats{}, nil
	}
	names := make([]string, 0, len(s.man.Datasets))
	for _, dm := range s.man.Datasets {
		names = append(names, dm.Name)
	}
	s.mu.RUnlock()

	start := time.Now()
	var stats CompactStats
	for _, name := range names {
		if opts.Exclude != nil && opts.Exclude(name) {
			continue
		}
		merged, created, in, out, err := s.compactDataset(name, opts)
		if err != nil {
			return stats, err
		}
		if merged > 0 {
			stats.Datasets = append(stats.Datasets, name)
			stats.Merged += merged
			stats.Created += created
			stats.BytesIn += in
			stats.BytesOut += out
		}
	}
	if stats.Merged > 0 {
		metCompactions.Inc()
		metCompactSeconds.ObserveSince(start)
		metCompactMerged.Add(int64(stats.Merged))
		metCompactCreated.Add(int64(stats.Created))
		metCompactBytesIn.Add(stats.BytesIn)
		metCompactBytesOut.Add(stats.BytesOut)
	}
	return stats, nil
}

// cand is one compaction input segment and its file size.
type cand struct {
	ref  SegmentRef
	size int64
}

// compactDataset merges one dataset's small segments under a leveled,
// size-tiered policy. When every live segment is below the size target,
// the dataset is rewritten whole — one merge group — which is also the
// only moment the shared dictionaries may be rebuilt (codes reassigned
// compactly in the new sort order, epoch bumped). Once target-sized
// segments exist, sustained ingest keeps spraying small flush segments
// next to them; those are grouped into size tiers (tier k holds files in
// [target/4^(k+1), target/4^k)) and each tier merges independently, so a
// fresh 100KB segment is never re-merged with a 3MB one just to reach
// the target — the 100KB tier rolls up into the 400KB tier, that one
// into the 1.6MB tier, and so on. Each merge costs I/O proportional to
// its tier, which keeps total write amplification logarithmic under
// sustained ingest while clustering (and the shared dictionary) survive.
//
// Returns how many input segments were replaced (0 = nothing to do or
// lost a benign race), how many merged segments were written in their
// place, and the input/output file bytes.
func (s *Store) compactDataset(name string, opts CompactOptions) (merged, created int, bytesIn, bytesOut int64, err error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, 0, 0, 0, nil
	}
	refs := append([]SegmentRef(nil), s.liveSegmentsLocked(name)...)
	sch, ok := s.schemaLocked(name)
	s.mu.RUnlock()
	if !ok || len(refs) < opts.minSegments() {
		return 0, 0, 0, 0, nil
	}

	target := opts.targetBytes()
	allSmall := true
	var cands []cand
	for _, ref := range refs {
		fi, err := os.Stat(filepath.Join(s.dir, ref.File))
		if err != nil {
			return 0, 0, 0, 0, nil // raced a concurrent swap; try next pass
		}
		if fi.Size() >= target {
			allSmall = false
			continue
		}
		cands = append(cands, cand{ref: ref, size: fi.Size()})
	}

	var groups [][]cand
	if allSmall {
		groups = [][]cand{cands} // whole-dataset rewrite, dicts may rebuild
	} else {
		// Size tiers, deepest (smallest files) first so one pass can roll
		// a tier up and the next pass continues from there.
		tierOf := func(size int64) int {
			t, bound := 0, target/4
			for t < 7 && size < bound {
				bound /= 4
				t++
			}
			return t
		}
		byTier := map[int][]cand{}
		for _, c := range cands {
			k := tierOf(c.size)
			byTier[k] = append(byTier[k], c)
		}
		for k := 7; k >= 0; k-- {
			if g := byTier[k]; len(g) > 0 {
				groups = append(groups, g)
			}
		}
	}

	for _, g := range groups {
		gm, gc, gin, gout, err := s.compactGroup(name, sch, g, opts, allSmall)
		if err != nil {
			return merged, created, bytesIn, bytesOut, err
		}
		merged += gm
		created += gc
		bytesIn += gin
		bytesOut += gout
	}
	return merged, created, bytesIn, bytesOut, nil
}

// compactGroup merges one group of a dataset's segments and commits the
// swap. rebuild marks a whole-dataset rewrite: the shared dictionaries
// are rebuilt from scratch (fresh codes in the new sort order) under
// bumped epochs, and the commit insists the group still covers every
// live segment — otherwise codes from the surviving old segments would
// dangle.
func (s *Store) compactGroup(name string, sch schema.Schema, cands []cand, opts CompactOptions, rebuild bool) (merged, created int, bytesIn, bytesOut int64, err error) {
	// One segment writer at a time: a flush encodes against the
	// dictionaries it sealed with, so a rebuild must not swap them out
	// from under it, and each commit builds on the generation before it.
	s.flushmu.Lock()
	defer s.flushmu.Unlock()
	for _, c := range cands {
		bytesIn += c.size
	}
	// The output is chunked at the size target — one monster segment
	// would be the granularity zone maps prune at, so merging everything
	// into it could make filtered scans WORSE, not better. Chunking also
	// guarantees a fixed point: compaction only runs when it strictly
	// reduces the segment count, so re-running it over its own output is
	// a no-op rather than an endless rewrite churn.
	chunks := int((bytesIn + opts.targetBytes() - 1) / opts.targetBytes())
	if chunks < 1 {
		chunks = 1
	}
	if len(cands) < opts.minSegments() || len(cands) <= chunks {
		return 0, 0, 0, 0, nil
	}

	// Resolve the dictionaries the inputs decode through and the set the
	// outputs encode against. A partial (tiered) merge must not touch the
	// dictionary — uncovered values simply fall back to private
	// encodings — while a whole-dataset rewrite starts fresh dictionaries
	// whose epochs supersede the old ones.
	s.mu.RLock()
	oldDicts := s.dictsLocked(name)
	s.mu.RUnlock()
	outDicts := oldDicts
	grow := false
	if rebuild {
		outDicts = DictSet{}
		for col, d := range oldDicts {
			outDicts[col] = &SharedDict{Col: col, Epoch: d.Epoch + 1}
		}
		grow = true
	}

	// Merge and sort outside the lock — segments are immutable, so the
	// reads need no coordination with writers. Inputs reuse a cached
	// entry but are read WITHOUT populating the segment cache: a
	// background pass over a never-queried dataset must not pin the whole
	// dataset in RAM, and the inputs are about to be deleted anyway.
	parts := make([]*table.Table, 0, len(cands))
	g := newWorkGroup()
	for _, c := range cands {
		es, _, dicts := s.lookup(name, c.ref, nil)
		var err error
		if es == nil {
			es, err = s.readFile(g, c.ref, nil, dicts)
		}
		var t *table.Table
		if err == nil {
			t, err = es.materialize(g, nil)
		}
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) || isStaleDict(err) {
				return 0, 0, 0, 0, nil // raced a concurrent swap; try next pass
			}
			return 0, 0, 0, 0, err
		}
		parts = append(parts, t)
	}
	mergedTab, err := concatTables(sch, parts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	clusterIdx := 0
	if key := opts.ClusterBy[name]; key != "" {
		if i := sch.IndexOf(key); i >= 0 {
			clusterIdx = i
		}
	}
	sorted := mergedTab.Sort([]table.SortKey{{Col: clusterIdx}})

	// Write the sorted rows as `chunks` segments of near-equal row
	// count: consecutive clustering-key ranges, so each chunk's zone map
	// is a tight, (near-)disjoint slice of the key space. Until a
	// manifest names them, the files are orphans a crash leaves for GC.
	rows := sorted.NumRows()
	rowsPerChunk := (rows + chunks - 1) / chunks
	if rowsPerChunk < 1 {
		rowsPerChunk = 1
	}
	type outSeg struct {
		file string
		meta SegmentMeta
	}
	var outs []outSeg
	removeOuts := func() {
		for _, o := range outs {
			os.Remove(filepath.Join(s.dir, o.file))
		}
	}
	for lo := 0; lo < rows || (rows == 0 && lo == 0); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > rows {
			hi = rows
		}
		chunk := sorted.Slice(lo, hi)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			removeOuts()
			return 0, 0, 0, 0, nil
		}
		file := segName(s.nextSeg)
		s.nextSeg++
		s.mu.Unlock()
		meta, err := WriteSegmentFileDict(s.dir, file, chunk, outDicts, grow)
		if err != nil {
			removeOuts()
			return 0, 0, 0, 0, err
		}
		outs = append(outs, outSeg{file: file, meta: meta})
		if fi, err := os.Stat(filepath.Join(s.dir, file)); err == nil {
			bytesOut += fi.Size()
		}
		if rows == 0 {
			break
		}
	}

	// Commit: under the store lock, re-validate that every input segment
	// is still live, then swap in a new manifest generation. The WAL
	// generation is untouched — compaction rewrites sealed history only,
	// so the live log (or a failed flush's WAL chain) keeps replaying
	// over the new catalog unchanged.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		removeOuts()
		return 0, 0, 0, 0, nil
	}
	// Re-check the veto at commit: a resume-sensitive subscription that
	// appeared while the merge ran outside the lock must still win. (A
	// subscription starting between this check and the CURRENT swap can
	// in principle still observe the old order — the window is now the
	// lock-held commit, not the whole merge.)
	if opts.Exclude != nil && opts.Exclude(name) {
		removeOuts()
		return 0, 0, 0, 0, nil
	}
	candSet := make(map[string]bool, len(cands))
	for _, c := range cands {
		candSet[c.ref.File] = true
	}
	live := s.liveSegmentsLocked(name)
	liveSet := make(map[string]bool, len(live))
	for _, r := range live {
		liveSet[r.File] = true
	}
	for f := range candSet {
		if !liveSet[f] {
			removeOuts() // replace/drop raced the merge: the inputs are gone
			return 0, 0, 0, 0, nil
		}
	}
	if rebuild {
		// A dictionary rebuild is only sound as a whole-dataset rewrite:
		// every live segment must be among the inputs, or the survivors'
		// codes would reference the dictionary being thrown away. A flush
		// that committed a new segment (or grew the dictionary) since the
		// snapshot aborts the rebuild; the next pass retries.
		if len(liveSet) != len(candSet) {
			removeOuts()
			return 0, 0, 0, 0, nil
		}
		cur := s.dictsLocked(name)
		stale := len(cur) != len(oldDicts)
		if !stale {
			for col, d := range oldDicts {
				c, ok := cur[col]
				if !ok || c.Epoch != d.Epoch || len(c.Vals) != len(d.Vals) {
					stale = true
					break
				}
			}
		}
		if stale {
			removeOuts()
			return 0, 0, 0, 0, nil
		}
	}

	var newRefs []SegmentRef
	inserted := false
	for _, r := range live {
		if candSet[r.File] {
			if !inserted {
				for _, o := range outs {
					newRefs = append(newRefs, SegmentRef{File: o.file, Meta: o.meta})
				}
				inserted = true
			}
			continue
		}
		newRefs = append(newRefs, r)
	}
	next := &Manifest{Gen: s.man.Gen + 1, WalGen: s.man.WalGen, NextSeg: s.nextSeg}
	for _, dm := range s.man.Datasets {
		cp := DatasetManifest{Name: dm.Name, Schema: dm.Schema, OrderEpoch: dm.OrderEpoch}
		cp.Dicts = append([]*SharedDict(nil), dm.Dicts...)
		if dm.Name == name {
			cp.Segments = newRefs
			// The clustering sort rewrote the dataset's row order: stale
			// row-offset resume tokens must stop matching.
			cp.OrderEpoch++
			if rebuild {
				// The rebuilt dictionaries (fresh codes, bumped epochs)
				// replace the old set in the same generation as the
				// segments written against them.
				cp.setDicts(outDicts)
			}
		} else {
			cp.Segments = append([]SegmentRef(nil), dm.Segments...)
		}
		next.Datasets = append(next.Datasets, cp)
	}
	if err := writeManifest(s.dir, next); err != nil {
		removeOuts()
		return 0, 0, 0, 0, err
	}
	// The swap succeeded: the merged generation is authoritative. The
	// replaced files and the superseded manifest are garbage now (and
	// would be collected on the next open if this process died here).
	// Output tables are deliberately NOT cached — the first scan that
	// wants them reads and caches them like any other segment.
	s.man = next
	s.cacheGen++ // in-flight reads of the purged files must not re-cache them
	for key := range s.encs {
		if file, _, _ := strings.Cut(key, "?"); candSet[file] {
			delete(s.encs, key)
		}
	}
	for _, c := range cands {
		os.Remove(filepath.Join(s.dir, c.ref.File))
	}
	if next.Gen > 1 {
		os.Remove(filepath.Join(s.dir, manifestName(next.Gen-1)))
	}
	return len(cands), len(outs), bytesIn, bytesOut, nil
}
