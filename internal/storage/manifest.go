package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nexus/internal/schema"
	"nexus/internal/wire"
)

// The on-disk catalog. A manifest is one immutable, CRC-protected file
// (MANIFEST-<gen>) listing every dataset and the segment files holding
// its rows, plus the generation of the write-ahead log that continues
// it. The CURRENT file names the live manifest and is replaced
// atomically, so a flush either fully happens or leaves the previous
// catalog (and its WAL) authoritative — there is no intermediate state
// a crash can expose.

// Manifest magic: "NXMAN" + version byte + CRLF. v2 added the
// per-dataset OrderEpoch (v1 files decode with every epoch at 0); v3
// added per-dataset shared dictionaries (v2 files decode with none).
var (
	manMagic   = []byte("NXMAN\x03\r\n")
	manMagicV2 = []byte("NXMAN\x02\r\n")
	manMagicV1 = []byte("NXMAN\x01\r\n")
)

// SegmentRef is one segment file inside a dataset manifest. The zone
// maps are duplicated from the segment footer so pruning decisions need
// no file reads.
type SegmentRef struct {
	File string
	Meta SegmentMeta
}

// DatasetManifest is one dataset's durable description. OrderEpoch
// increments every time the dataset's row order restarts or is
// rewritten (replace, drop + recreate, compaction re-sort); row-offset
// resume tokens are only valid within the epoch they were minted in.
type DatasetManifest struct {
	Name       string
	Schema     schema.Schema
	OrderEpoch uint64
	Segments   []SegmentRef
	// Dicts are the dataset's shared dictionaries (sorted by column name
	// for a deterministic encoding), which v3 segments' PageEncDictShared
	// pages resolve codes through. Persisting them in the manifest means
	// a dictionary extension commits atomically with the segments that
	// reference it, and replicas receive dictionaries with the catalog.
	Dicts []*SharedDict
}

// DictSet builds the column-indexed view of the dataset's dictionaries.
func (dm *DatasetManifest) DictSet() DictSet {
	if len(dm.Dicts) == 0 {
		return nil
	}
	ds := make(DictSet, len(dm.Dicts))
	for _, d := range dm.Dicts {
		ds[d.Col] = d
	}
	return ds
}

// setDicts installs a dict set as the sorted slice the encoder wants.
func (dm *DatasetManifest) setDicts(ds DictSet) {
	dm.Dicts = dm.Dicts[:0]
	for _, d := range ds {
		dm.Dicts = append(dm.Dicts, d)
	}
	sort.Slice(dm.Dicts, func(i, j int) bool { return dm.Dicts[i].Col < dm.Dicts[j].Col })
}

// Rows sums the dataset's segment row counts.
func (dm *DatasetManifest) Rows() int64 {
	var n int64
	for _, s := range dm.Segments {
		n += s.Meta.Rows
	}
	return n
}

// Manifest is the root catalog object.
type Manifest struct {
	Gen      uint64 // manifest generation
	WalGen   uint64 // generation of the WAL continuing this manifest
	NextSeg  uint64 // next segment file number
	Datasets []DatasetManifest
}

// dataset returns the named dataset manifest, or nil.
func (m *Manifest) dataset(name string) *DatasetManifest {
	for i := range m.Datasets {
		if m.Datasets[i].Name == name {
			return &m.Datasets[i]
		}
	}
	return nil
}

// EncodeManifest serializes a manifest with the same magic|body|crc
// armor segments use.
func EncodeManifest(m *Manifest) []byte {
	var body wire.Encoder
	body.U64(m.Gen)
	body.U64(m.WalGen)
	body.U64(m.NextSeg)
	body.U32(uint32(len(m.Datasets)))
	for _, ds := range m.Datasets {
		body.Str(ds.Name)
		wire.PutSchema(&body, ds.Schema)
		body.U64(ds.OrderEpoch)
		body.U32(uint32(len(ds.Segments)))
		for _, s := range ds.Segments {
			body.Str(s.File)
			body.U64(s.Meta.SchemaHash)
			body.I64(s.Meta.Rows)
			putZones(&body, s.Meta.Zones)
		}
		body.U32(uint32(len(ds.Dicts)))
		for _, d := range ds.Dicts {
			body.Str(d.Col)
			body.U64(d.Epoch)
			body.U32(uint32(len(d.Vals)))
			for _, v := range d.Vals {
				body.Str(v)
			}
		}
	}
	var e wire.Encoder
	e.Raw(manMagic)
	e.U32(uint32(body.Len()))
	e.Raw(body.Bytes())
	e.U32(crc32.ChecksumIEEE(body.Bytes()))
	return e.Bytes()
}

// DecodeManifest parses and verifies a manifest encoding.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manMagic)+8 {
		return nil, fmt.Errorf("storage: manifest too short")
	}
	matches := func(magic []byte) bool {
		for i, c := range magic {
			if b[i] != c {
				return false
			}
		}
		return true
	}
	v1 := matches(manMagicV1)
	v2 := matches(manMagicV2)
	if !v1 && !v2 && !matches(manMagic) {
		return nil, fmt.Errorf("storage: bad manifest magic")
	}
	d := wire.NewDecoder(b[len(manMagic):])
	bodyLen := int(d.U32())
	if bodyLen < 0 || bodyLen > d.Remaining()-4 {
		return nil, fmt.Errorf("storage: manifest body length %d exceeds file", bodyLen)
	}
	body := d.RawN(bodyLen)
	crc := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, fmt.Errorf("storage: manifest crc mismatch")
	}
	bd := wire.NewDecoder(body)
	m := &Manifest{Gen: bd.U64(), WalGen: bd.U64(), NextSeg: bd.U64()}
	nd := int(bd.U32())
	if bd.Err() != nil || nd > bd.Remaining() {
		return nil, fmt.Errorf("storage: bad manifest dataset count")
	}
	for i := 0; i < nd; i++ {
		ds := DatasetManifest{Name: bd.Str(), Schema: wire.GetSchema(bd)}
		if !v1 {
			ds.OrderEpoch = bd.U64()
		}
		ns := int(bd.U32())
		if bd.Err() != nil || ns > bd.Remaining() {
			return nil, fmt.Errorf("storage: bad manifest segment count")
		}
		for j := 0; j < ns; j++ {
			ref := SegmentRef{File: bd.Str()}
			ref.Meta.SchemaHash = bd.U64()
			ref.Meta.Rows = bd.I64()
			ref.Meta.Zones = getZones(bd)
			ds.Segments = append(ds.Segments, ref)
		}
		if !v1 && !v2 {
			nDicts := int(bd.U32())
			if bd.Err() != nil || nDicts < 0 || nDicts > bd.Remaining() {
				return nil, fmt.Errorf("storage: bad manifest dictionary count")
			}
			for j := 0; j < nDicts; j++ {
				dict := &SharedDict{Col: bd.Str(), Epoch: bd.U64()}
				nVals := int(bd.U32())
				if bd.Err() != nil || nVals < 0 || nVals > bd.Remaining() {
					return nil, fmt.Errorf("storage: dictionary %q length %d exceeds manifest", dict.Col, nVals)
				}
				dict.Vals = make([]string, nVals)
				for k := range dict.Vals {
					dict.Vals[k] = bd.Str()
				}
				if bd.Err() != nil {
					return nil, fmt.Errorf("storage: dictionary %q truncated", dict.Col)
				}
				ds.Dicts = append(ds.Dicts, dict)
			}
		}
		m.Datasets = append(m.Datasets, ds)
	}
	if err := bd.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// manifestName returns the file name of generation gen.
func manifestName(gen uint64) string { return fmt.Sprintf("MANIFEST-%06d", gen) }

// walName returns the WAL file name of generation gen.
func walName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

// segName returns the segment file name for sequence n.
func segName(n uint64) string { return fmt.Sprintf("seg-%06d.nxs", n) }

// writeManifest persists a manifest and atomically repoints CURRENT at
// it. Ordering matters: the manifest file (and every segment it names)
// is durable before CURRENT moves, so a crash between the two leaves
// the previous generation live and the new files as garbage for the
// next open to collect.
func writeManifest(dir string, m *Manifest) error {
	name := manifestName(m.Gen)
	if err := atomicWriteFile(filepath.Join(dir, name), EncodeManifest(m)); err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, "CURRENT"), []byte(name+"\n"))
}

// readCurrentManifest loads the manifest CURRENT names. A missing
// CURRENT means a fresh directory: generation 0, empty catalog.
func readCurrentManifest(dir string) (*Manifest, error) {
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if os.IsNotExist(err) {
		return &Manifest{Gen: 0, WalGen: 0, NextSeg: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("storage: CURRENT names invalid manifest %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", name, err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", name, err)
	}
	return m, nil
}

// collectGarbage removes files a crash orphaned: segments no manifest
// references, manifests older than the live one, and WALs of the
// generations the manifest's flush retired. WAL generations from the
// manifest's on are kept — they are the log continuing it, a chain when
// a sealed flush has not committed. Called on open after recovery
// settles, and after a replicated manifest is applied.
func collectGarbage(dir string, m *Manifest) {
	live := map[string]bool{
		"CURRENT":              true,
		manifestName(m.Gen):    true,
		filepath.Base(ckptDir): true,
	}
	for _, ds := range m.Datasets {
		for _, s := range ds.Segments {
			live[s.File] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if live[name] || ent.IsDir() {
			continue
		}
		var gen uint64
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &gen); n == 1 && gen >= m.WalGen {
			continue
		}
		if strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "MANIFEST-") ||
			strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
