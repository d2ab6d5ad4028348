package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Segment replication, storage side. The existing generation protocol
// already is a replication protocol in waiting: segments are immutable,
// the manifest names exactly the files of a generation, and CURRENT
// swaps atomically. A primary therefore ships (a) its encoded manifest
// and (b) the raw segment files it references; a follower fetches the
// files it is missing, verifies their CRCs by decoding them, and
// applies the manifest with the same write-files-then-swap-CURRENT
// ordering a local flush uses — a crash mid-sync leaves the previous
// generation authoritative on the follower, never a torn catalog.

// ErrReplicaReadOnly refuses mutations on a store opened as a replica:
// its contents are owned by the primary's manifest stream, and a local
// write would be silently destroyed by the next applied generation.
var ErrReplicaReadOnly = errors.New("storage: replica is read-only (serving replicated data)")

// SetReplica switches the store into (or out of) replica mode: Append,
// Replace and Drop refuse with ErrReplicaReadOnly, and
// ApplyReplicatedManifest becomes legal. Checkpoints stay writable —
// a failed-over subscriber checkpoints its stream state on the replica
// that adopted it.
func (s *Store) SetReplica(on bool) {
	s.mu.Lock()
	s.replica = on
	s.mu.Unlock()
}

// IsReplica reports replica mode.
func (s *Store) IsReplica() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replica
}

// CurrentGen returns the manifest generation currently applied.
func (s *Store) CurrentGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.Gen
}

// EncodedManifest snapshots the live catalog in its on-disk encoding
// (magic, body, CRC) — the exact bytes a follower verifies and applies.
func (s *Store) EncodedManifest() (gen uint64, raw []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.Gen, EncodeManifest(s.man)
}

// validSegName admits exactly the file names a manifest may reference —
// a hostile fetch request must not escape the data directory.
func validSegName(name string) bool {
	return strings.HasPrefix(name, "seg-") &&
		strings.HasSuffix(name, ".nxs") &&
		!strings.ContainsAny(name, "/\\") &&
		!strings.Contains(name, "..")
}

// SegmentFileBytes serves one raw segment file for replication. Only
// manifest-shaped segment names are served.
func (s *Store) SegmentFileBytes(name string) ([]byte, error) {
	if !validSegName(name) {
		return nil, fmt.Errorf("storage: refusing to serve non-segment file %q", name)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("storage: read segment for replication: %w", err)
	}
	return data, nil
}

// HasSegmentFile reports whether the segment file exists locally.
func (s *Store) HasSegmentFile(name string) bool {
	if !validSegName(name) {
		return false
	}
	_, err := os.Stat(filepath.Join(s.dir, name))
	return err == nil
}

// PutReplicatedSegment verifies a fetched segment end to end — magic,
// version, page checksums, footer CRC, code bounds — and writes it
// atomically under its manifest name. A corrupt or truncated transfer
// is rejected before a single byte lands under the name. Verification
// is structural: a v3 segment's shared-dict pages are checked without
// their dictionary, which arrives later inside the manifest generation
// that references both.
func (s *Store) PutReplicatedSegment(name string, data []byte) error {
	if !validSegName(name) {
		return fmt.Errorf("storage: bad replicated segment name %q", name)
	}
	if err := VerifySegment(data); err != nil {
		return fmt.Errorf("storage: replicated segment %s failed verification: %w", name, err)
	}
	return atomicWriteFile(filepath.Join(s.dir, name), data)
}

// CheckpointSet snapshots every durable stream checkpoint (key to
// payload) for replication, so a failed-over durable subscriber resumes
// on the replica from the primary's last persisted state instead of
// replaying from scratch.
func (s *Store) CheckpointSet() (map[string][]byte, error) {
	keys, err := s.Checkpoints()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		data, ok, err := s.LoadCheckpoint(k)
		if err != nil {
			return nil, err
		}
		if ok {
			out[k] = data
		}
	}
	return out, nil
}

// ApplyReplicatedCheckpoints mirrors the primary's checkpoint set:
// every key in set is saved, every local key absent from it removed —
// the primary retiring a completed subscription's checkpoint retires it
// here too.
func (s *Store) ApplyReplicatedCheckpoints(set map[string][]byte) error {
	for k, data := range set {
		if err := s.SaveCheckpoint(k, data); err != nil {
			return err
		}
	}
	local, err := s.Checkpoints()
	if err != nil {
		return err
	}
	for _, k := range local {
		if _, ok := set[k]; !ok {
			if err := s.DeleteCheckpoint(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyReplicatedManifest installs a primary's manifest as the local
// current generation. The caller has already fetched and verified every
// segment the manifest references (PutReplicatedSegment); this method
// re-checks their presence, persists the manifest bytes, atomically
// swaps CURRENT, and rotates the (empty — the store is a replica) WAL
// to the generation the manifest names. The ordering mirrors Flush:
// everything durable before the swap, so a crash mid-apply leaves the
// previous generation live.
func (s *Store) ApplyReplicatedManifest(raw []byte) error {
	m, err := DecodeManifest(raw)
	if err != nil {
		return fmt.Errorf("storage: replicated manifest: %w", err)
	}
	s.flushmu.Lock()
	defer s.flushmu.Unlock()
	s.rotmu.Lock()
	defer s.rotmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	if !s.replica {
		return fmt.Errorf("storage: ApplyReplicatedManifest on a non-replica store")
	}
	switch {
	case m.Gen == s.man.Gen:
		return nil // already applied
	case m.Gen < s.man.Gen:
		return fmt.Errorf("storage: replicated manifest gen %d behind local gen %d (primary went backwards?)", m.Gen, s.man.Gen)
	}
	for _, ds := range m.Datasets {
		for _, ref := range ds.Segments {
			if !validSegName(ref.File) {
				return fmt.Errorf("storage: replicated manifest names invalid segment %q", ref.File)
			}
			if _, err := os.Stat(filepath.Join(s.dir, ref.File)); err != nil {
				return fmt.Errorf("storage: replicated manifest references missing segment %s: %w", ref.File, err)
			}
		}
	}

	// A fresh (empty) WAL for the new generation, created before the
	// manifest that names it — the same crash-ordering Flush uses.
	var newWal *WAL
	if m.WalGen != s.walGen {
		newWal, err = CreateWAL(filepath.Join(s.dir, walName(m.WalGen)))
		if err != nil {
			return err
		}
	}
	// Persist the exact bytes that passed the CRC check, then swap.
	if err := atomicWriteFile(filepath.Join(s.dir, manifestName(m.Gen)), raw); err != nil {
		if newWal != nil {
			newWal.Close()
			os.Remove(filepath.Join(s.dir, walName(m.WalGen)))
		}
		return err
	}
	if err := atomicWriteFile(filepath.Join(s.dir, "CURRENT"), []byte(manifestName(m.Gen)+"\n")); err != nil {
		if newWal != nil {
			newWal.Close()
			os.Remove(filepath.Join(s.dir, walName(m.WalGen)))
		}
		return err
	}

	oldMan := s.man
	if newWal != nil {
		oldWal, oldGen := s.wal, s.walGen
		s.wal, s.walGen = newWal, m.WalGen
		oldWal.Close()
		for gen := oldMan.WalGen; gen <= oldGen; gen++ {
			if gen != m.WalGen {
				os.Remove(filepath.Join(s.dir, walName(gen)))
			}
		}
	}
	s.man = m
	s.nextSeg = m.NextSeg
	s.tails = map[string]*tail{} // a replica holds no local writes
	// Purge the segment cache wholesale: a compaction on the primary
	// retires files this cache may still hold, and nothing would ever
	// evict them.
	s.encs = map[string]*EncodedSegment{}
	s.cacheGen++
	if m.Gen > 0 && oldMan.Gen > 0 {
		os.Remove(filepath.Join(s.dir, manifestName(oldMan.Gen)))
	}
	collectGarbage(s.dir, m)
	return nil
}
