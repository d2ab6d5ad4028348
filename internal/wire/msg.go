package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MsgType tags protocol messages between clients and servers (and between
// peer servers, for direct intermediate shipping).
type MsgType uint8

// Protocol messages.
const (
	MsgHello     MsgType = 1  // client → server: name
	MsgHelloAck  MsgType = 2  // server → client: name, capability bitset, kernels, datasets
	MsgExecute   MsgType = 3  // client → server: id, plan
	MsgResult    MsgType = 4  // server → client: id, table
	MsgError     MsgType = 5  // server → client: id, message
	MsgStore     MsgType = 6  // any → server: dataset name, table
	MsgAck       MsgType = 7  // server → sender: id, rows, payload bytes
	MsgExecuteTo MsgType = 8  // client → server: id, plan, peer addr, store name
	MsgDrop      MsgType = 9  // client → server: dataset name
	MsgList      MsgType = 10 // client → server: request dataset list
	MsgDatasets  MsgType = 11 // server → client: dataset infos

	// Streaming subscriptions (federated data in motion). One subscriber
	// connection carries one long-running subscription: the client ships a
	// stream spec, the server runs the pipeline and pushes window results
	// back under credit-based flow control, and window state crosses the
	// wire when a subscriber detaches or resumes.
	MsgSubscribeStream MsgType = 12 // client → server: id, stream spec (+ optional resume state)
	MsgSubAck          MsgType = 13 // server → client: id, output schema
	MsgStreamBatch     MsgType = 14 // server → client: id, seq, watermark, result table
	MsgWatermark       MsgType = 15 // server → client: id, watermark (progress between results)
	MsgWindowState     MsgType = 16 // server → client: id, serialized open-window state
	MsgCredit          MsgType = 17 // either direction: id, n more batches permitted
	MsgStreamPublish   MsgType = 18 // client → server: id, event batch (push sources)
	MsgStreamClose     MsgType = 19 // client → server: id, mode (end input / cancel / detach with state)
	MsgStreamEnd       MsgType = 20 // server → client: id, final stats (terminal)

	// MsgAppend appends rows to a dataset instead of replacing it — the
	// streaming-ingest path into durable providers. Payload is identical
	// to MsgStore.
	MsgAppend MsgType = 21 // any → server: dataset name, table

	// Segment replication (internal/replication). A follower pulls the
	// primary's catalog and the immutable files it names over the same
	// connection protocol clients speak: request the current manifest,
	// fetch the segment files it references (CRC-verified on arrival),
	// mirror the durable stream checkpoints, and swap the manifest in
	// atomically. Status lets a primary-side monitor ask any replica how
	// far behind it is.
	MsgReplManifest     MsgType = 22 // follower → primary: flush flag
	MsgReplManifestData MsgType = 23 // primary → follower: encoded manifest
	MsgReplFetch        MsgType = 24 // follower → primary: segment file name
	MsgReplFile         MsgType = 25 // primary → follower: file name, raw bytes
	MsgReplCkpts        MsgType = 26 // follower → primary: request checkpoint set
	MsgReplCkptData     MsgType = 27 // primary → follower: key/payload pairs
	MsgReplStatus       MsgType = 28 // monitor → replica: request replication status
	MsgReplStatusData   MsgType = 29 // replica → monitor: applied gen, last sync, error

	// MsgRefused is the server declining a request for admission-control
	// reasons (per-tenant quota exhausted, or the server shedding load
	// under backpressure). Unlike MsgError it is typed: clients surface
	// it as a *federation.RefusedError so callers can distinguish "try
	// later / lower your rate" from "your request is broken".
	MsgRefused MsgType = 30 // server → client: id, refusal code, message
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "helloack"
	case MsgExecute:
		return "execute"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgStore:
		return "store"
	case MsgAck:
		return "ack"
	case MsgExecuteTo:
		return "executeto"
	case MsgDrop:
		return "drop"
	case MsgList:
		return "list"
	case MsgDatasets:
		return "datasets"
	case MsgSubscribeStream:
		return "subscribestream"
	case MsgSubAck:
		return "suback"
	case MsgStreamBatch:
		return "streambatch"
	case MsgWatermark:
		return "watermark"
	case MsgWindowState:
		return "windowstate"
	case MsgCredit:
		return "credit"
	case MsgStreamPublish:
		return "streampublish"
	case MsgStreamClose:
		return "streamclose"
	case MsgStreamEnd:
		return "streamend"
	case MsgAppend:
		return "append"
	case MsgReplManifest:
		return "replmanifest"
	case MsgReplManifestData:
		return "replmanifestdata"
	case MsgReplFetch:
		return "replfetch"
	case MsgReplFile:
		return "replfile"
	case MsgReplCkpts:
		return "replckpts"
	case MsgReplCkptData:
		return "replckptdata"
	case MsgReplStatus:
		return "replstatus"
	case MsgReplStatusData:
		return "replstatusdata"
	case MsgRefused:
		return "refused"
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// PeekID reads the big-endian u64 a payload starts with: the request or
// subscription ID of every message whose layout leads with one (0 when
// the payload is shorter). It decodes nothing else, so it is only
// meaningful for such a message — a MsgHelloAck, say, starts with a
// string.
func PeekID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// maxFrame bounds a single message (256 MiB) against corrupt length
// prefixes.
const maxFrame = 256 << 20

// WriteFrame writes one length-prefixed message: u32 length, u8 type,
// payload. It returns the total bytes written (the interop experiments
// account for every byte on every path).
func WriteFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	n := len(payload) + 1
	if n > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	hdr := [5]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), byte(t)}
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wire: write frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, fmt.Errorf("wire: write frame payload: %w", err)
		}
	}
	return 4 + n, nil
}

// ReadFrame reads one message, returning its type, payload, and total
// bytes read.
func ReadFrame(r io.Reader) (MsgType, []byte, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err // io.EOF passes through for clean shutdown
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n < 1 || n > maxFrame {
		return 0, nil, 0, fmt.Errorf("wire: bad frame length %d", n)
	}
	t := MsgType(hdr[4])
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return t, payload, 4 + n, nil
}
