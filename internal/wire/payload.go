package wire

import (
	"fmt"

	"nexus/internal/core"
	"nexus/internal/table"
)

// Payload codecs for the protocol messages. Every payload is encoded with
// the same primitives as plans and tables, so client and server cannot
// drift apart.

// EncodeExecute builds a MsgExecute payload.
func EncodeExecute(id uint64, plan core.Node) []byte {
	return EncodeExecuteTrace(id, plan, TraceCtx{})
}

// EncodeExecuteTrace is EncodeExecute with a trailing trace-context
// field (omitted when tc is zero; old servers ignore it).
func EncodeExecuteTrace(id uint64, plan core.Node, tc TraceCtx) []byte {
	var e Encoder
	e.U64(id)
	PutPlan(&e, plan)
	PutTraceCtx(&e, tc)
	return e.Bytes()
}

// DecodeExecute parses a MsgExecute payload.
func DecodeExecute(b []byte) (uint64, core.Node, error) {
	id, plan, _, err := DecodeExecuteTrace(b)
	return id, plan, err
}

// DecodeExecuteTrace parses a MsgExecute payload including the
// optional trace context (zero when the client sent none).
func DecodeExecuteTrace(b []byte) (uint64, core.Node, TraceCtx, error) {
	d := NewDecoder(b)
	id := d.U64()
	plan, err := GetPlan(d)
	if err != nil {
		return 0, nil, TraceCtx{}, err
	}
	return id, plan, GetTraceCtx(d), nil
}

// EncodeResult builds a MsgResult payload.
func EncodeResult(id uint64, t *table.Table) []byte {
	e := sizedEncoder(8 + tableSize(t))
	e.U64(id)
	PutTable(&e, t)
	return e.Bytes()
}

// DecodeResult parses a MsgResult payload.
func DecodeResult(b []byte) (uint64, *table.Table, error) {
	d := NewDecoder(b)
	id := d.U64()
	t := GetTable(d)
	if d.Err() != nil {
		return 0, nil, d.Err()
	}
	return id, t, nil
}

// EncodeError builds a MsgError payload.
func EncodeError(id uint64, msg string) []byte {
	var e Encoder
	e.U64(id)
	e.Str(msg)
	return e.Bytes()
}

// DecodeError parses a MsgError payload.
func DecodeError(b []byte) (uint64, string, error) {
	d := NewDecoder(b)
	id := d.U64()
	msg := d.Str()
	return id, msg, d.Err()
}

// EncodeStore builds a MsgStore (or MsgAppend) payload.
func EncodeStore(name string, t *table.Table) []byte {
	return EncodeStoreTrace(name, t, TraceCtx{})
}

// EncodeStoreTrace is EncodeStore with a trailing trace-context field
// — the append-path propagation (omitted when tc is zero).
func EncodeStoreTrace(name string, t *table.Table, tc TraceCtx) []byte {
	e := sizedEncoder(4 + len(name) + tableSize(t) + traceCtxLen)
	e.Str(name)
	PutTable(&e, t)
	PutTraceCtx(&e, tc)
	return e.Bytes()
}

// DecodeStore parses a MsgStore/MsgAppend payload.
func DecodeStore(b []byte) (string, *table.Table, error) {
	name, t, _, err := DecodeStoreTrace(b)
	return name, t, err
}

// DecodeStoreTrace parses a MsgStore/MsgAppend payload including the
// optional trace context.
func DecodeStoreTrace(b []byte) (string, *table.Table, TraceCtx, error) {
	d := NewDecoder(b)
	name := d.Str()
	t := GetTable(d)
	if d.Err() != nil {
		return "", nil, TraceCtx{}, d.Err()
	}
	return name, t, GetTraceCtx(d), nil
}

// EncodeAck builds a MsgAck payload: rows produced and payload bytes
// shipped peer-to-peer on the sender's behalf.
func EncodeAck(id uint64, rows int64, shippedBytes int64) []byte {
	var e Encoder
	e.U64(id)
	e.I64(rows)
	e.I64(shippedBytes)
	return e.Bytes()
}

// DecodeAck parses a MsgAck payload.
func DecodeAck(b []byte) (id uint64, rows int64, shippedBytes int64, err error) {
	d := NewDecoder(b)
	id = d.U64()
	rows = d.I64()
	shippedBytes = d.I64()
	return id, rows, shippedBytes, d.Err()
}

// EncodeExecuteTo builds a MsgExecuteTo payload: run the plan, push the
// result to the peer server as storeAs, never returning it to the client.
func EncodeExecuteTo(id uint64, peerAddr, storeAs string, plan core.Node, tc TraceCtx) []byte {
	var e Encoder
	e.U64(id)
	e.Str(peerAddr)
	e.Str(storeAs)
	PutPlan(&e, plan)
	PutTraceCtx(&e, tc)
	return e.Bytes()
}

// DecodeExecuteTo parses a MsgExecuteTo payload.
func DecodeExecuteTo(b []byte) (id uint64, peerAddr, storeAs string, plan core.Node, tc TraceCtx, err error) {
	d := NewDecoder(b)
	id = d.U64()
	peerAddr = d.Str()
	storeAs = d.Str()
	plan, err = GetPlan(d)
	if err != nil {
		return 0, "", "", nil, TraceCtx{}, err
	}
	return id, peerAddr, storeAs, plan, GetTraceCtx(d), nil
}

// EncodeDrop builds a MsgDrop payload.
func EncodeDrop(name string) []byte {
	var e Encoder
	e.Str(name)
	return e.Bytes()
}

// DecodeDrop parses a MsgDrop payload.
func DecodeDrop(b []byte) (string, error) {
	d := NewDecoder(b)
	name := d.Str()
	return name, d.Err()
}

// Refusal codes carried by MsgRefused.
const (
	// RefusedOverQuota: the tenant's configured quota (subscriptions,
	// append rows/sec, scan rows/sec) is exhausted.
	RefusedOverQuota uint32 = 1
	// RefusedShedding: the server is shedding new work because its
	// credit-stall tail latency crossed the configured bound.
	RefusedShedding uint32 = 2
)

// HelloReq is what a client's MsgHello carries.
type HelloReq struct {
	// Tenant is the client's tenant token ("" is the anonymous tenant).
	Tenant string
	// Trace parents the server's handshake span (zero: untraced).
	Trace TraceCtx
	// ByID asks the server to answer execute calls as they finish,
	// correlated by their request IDs, instead of in request order.
	ByID bool
}

// helloByID is the flag bit HelloReq.ByID sets in the hello's trailing
// flags byte.
const helloByID = 1

// EncodeHello builds a MsgHello payload: the tenant, the optional
// trace-context field, then an optional flags byte. Each field trails
// the ones an older peer knows, and older peers ignore bytes past
// them. The zero request encodes as the empty payload pre-admission
// clients send; anything after the tenant needs the tenant in front of
// it to keep its position, so a traced or flagged anonymous hello
// encodes the empty tenant explicitly.
func EncodeHello(h HelloReq) []byte {
	if h == (HelloReq{}) {
		return nil
	}
	var e Encoder
	e.Str(h.Tenant)
	PutTraceCtx(&e, h.Trace)
	if h.ByID {
		e.U8(helloByID)
	}
	return e.Bytes()
}

// DecodeHello parses a MsgHello payload. An empty payload is the
// anonymous, untraced hello of a client that routes replies in request
// order.
func DecodeHello(b []byte) (HelloReq, error) {
	var h HelloReq
	if len(b) == 0 {
		return h, nil
	}
	d := NewDecoder(b)
	h.Tenant = d.Str()
	h.Trace = GetTraceCtx(d)
	if d.Remaining() > 0 {
		h.ByID = d.U8()&helloByID != 0
	}
	return h, d.Err()
}

// EncodeRefused builds a MsgRefused payload: the request/subscription id
// it answers (0 when the request carries none), a refusal code, and a
// human-readable reason.
func EncodeRefused(id uint64, code uint32, msg string) []byte {
	var e Encoder
	e.U64(id)
	e.U32(code)
	e.Str(msg)
	return e.Bytes()
}

// DecodeRefused parses a MsgRefused payload.
func DecodeRefused(b []byte) (id uint64, code uint32, msg string, err error) {
	d := NewDecoder(b)
	id = d.U64()
	code = d.U32()
	msg = d.Str()
	return id, code, msg, d.Err()
}

// HelloInfo is the server identity exchanged at connection setup.
type HelloInfo struct {
	Name     string
	CapBits  uint64
	Kernels  []string
	Datasets []DatasetHello
	// Durable reports that the server persists its datasets across
	// restarts (a -data-dir server); catalog listings surface it.
	Durable bool
}

// DatasetHello describes one hosted dataset in a hello exchange.
type DatasetHello struct {
	Name   string
	Rows   int64
	Schema []byte // encoded schema
}

// EncodeHelloAck builds a MsgHelloAck payload.
func EncodeHelloAck(h HelloInfo) []byte {
	var e Encoder
	e.Str(h.Name)
	e.U64(h.CapBits)
	e.U32(uint32(len(h.Kernels)))
	for _, k := range h.Kernels {
		e.Str(k)
	}
	e.U32(uint32(len(h.Datasets)))
	for _, ds := range h.Datasets {
		e.Str(ds.Name)
		e.I64(ds.Rows)
		e.U32(uint32(len(ds.Schema)))
		e.Raw(ds.Schema)
	}
	e.Bool(h.Durable)
	return e.Bytes()
}

// DecodeHelloAck parses a MsgHelloAck payload.
func DecodeHelloAck(b []byte) (HelloInfo, error) {
	d := NewDecoder(b)
	var h HelloInfo
	h.Name = d.Str()
	h.CapBits = d.U64()
	nk := int(d.U32())
	if d.Err() != nil || nk > d.Remaining() {
		return h, fmt.Errorf("wire: bad helloack kernels")
	}
	for i := 0; i < nk; i++ {
		h.Kernels = append(h.Kernels, d.Str())
	}
	nd := int(d.U32())
	if d.Err() != nil || nd > d.Remaining() {
		return h, fmt.Errorf("wire: bad helloack datasets")
	}
	for i := 0; i < nd; i++ {
		var ds DatasetHello
		ds.Name = d.Str()
		ds.Rows = d.I64()
		sn := int(d.U32())
		raw := d.RawN(sn)
		if d.Err() != nil {
			return h, fmt.Errorf("wire: bad helloack schema bytes")
		}
		ds.Schema = append([]byte(nil), raw...)
		h.Datasets = append(h.Datasets, ds)
	}
	h.Durable = d.Bool()
	return h, d.Err()
}
