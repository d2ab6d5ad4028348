package federation

import (
	"fmt"
	"sync"

	"nexus/internal/obs/trace"
	"nexus/internal/schema"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// Federated streaming: a Subscription is the client half of one
// long-running stream hosted by a remote provider. Results arrive as
// watermarked batches under credit-based flow control; push-mode
// subscriptions feed events upstream under a publish window; and a
// subscriber can detach with the pipeline's window state and resume on
// the same — or a different — provider.

// StreamTransport is a Transport that can host long-running stream
// subscriptions.
type StreamTransport interface {
	Transport
	// Subscribe opens one subscription. The sub's ID is assigned by the
	// transport; the caller configures everything else.
	Subscribe(sub wire.StreamSub) (*Subscription, error)
}

// DefaultCredit is the result-batch window a subscription grants the
// server up front; the client returns one credit per consumed batch.
const DefaultCredit = 32

// SubBatch is one message from a subscription: a result table (nil for
// watermark-only progress updates) and the event-time watermark in force
// when it was sent.
type SubBatch struct {
	Table     *table.Table
	Watermark int64
	Seq       uint64
}

// Subscription is a live federated stream. Batches arrives results and
// watermark progress; Publish/EndInput feed push-mode sources; Detach
// retrieves the window state for resumption elsewhere.
//
// A subscription is one stream of a Mux: the mux demultiplexes this
// subscription's frames into its inbox, the reader pulls them from
// there, and every frame it sends goes through the mux's shared write
// path.
type Subscription struct {
	mx      *Mux
	ownsMux bool          // mx was dialed for this subscription alone; the reader closes it
	inbox   chan subFrame // frames demultiplexed for this sub
	id      uint64
	outSch  schema.Schema
	sp      *trace.Span // client span covering the stream's lifetime; nil untraced

	out    chan SubBatch
	done   chan struct{} // reader terminated; state/stats/err final
	closed chan struct{} // subscriber stopped consuming; reader discards

	closeOnce sync.Once

	mu        sync.Mutex
	pubCond   *sync.Cond
	pubCredit int64
	state     *stream.State
	stats     *stream.Stats
	err       error
	discards  []SubBatch // results the reader dropped during a close handshake
	detaching bool       // a Detach handshake is in flight; Close must not sever it
}

// subFrame is one demultiplexed frame handed to a subscription's reader.
type subFrame struct {
	typ     wire.MsgType
	payload []byte
}

// OutputSchema is the schema of result batches.
func (s *Subscription) OutputSchema() schema.Schema { return s.outSch }

// Batches delivers results and watermark updates until the subscription
// terminates (channel close). Check Err afterwards.
func (s *Subscription) Batches() <-chan SubBatch { return s.out }

// readLoop is the subscription's single reader: it consumes the frames
// the mux routed to its inbox and dispatches them until the terminal
// frame or a transport failure.
func (s *Subscription) readLoop() {
	// The client subscription span ends with the stream, carrying the
	// terminal error (a severed transport or dropped connection closes
	// it with error status — it never lingers open in the ring).
	defer func() { s.sp.End(s.Err()) }()
	defer func() {
		// Termination becomes visible under s.mu before the broadcast, so
		// a Publish blocked on credit cannot wake, re-check, miss it and
		// sleep again with nobody left to wake it.
		s.mu.Lock()
		close(s.done)
		s.mu.Unlock()
		s.pubCond.Broadcast()
	}()
	defer close(s.out)
	defer func() {
		s.mx.forgetSub(s.id)
		if s.ownsMux {
			s.mx.Close()
		}
	}()
	for {
		f, ok := <-s.inbox
		if !ok {
			s.fail(fmt.Errorf("federation: subscription read: %w", s.mx.subSeverErr()))
			return
		}
		if s.handleFrame(f.typ, f.payload) {
			return
		}
	}
}

// handleFrame dispatches one stream frame, reporting whether it was
// terminal (the reader must stop).
func (s *Subscription) handleFrame(typ wire.MsgType, payload []byte) (done bool) {
	switch typ {
	case wire.MsgStreamBatch:
		_, seq, mark, t, err := wire.DecodeStreamBatch(payload)
		if err != nil {
			s.fail(err)
			return true
		}
		select {
		case s.out <- SubBatch{Table: t, Watermark: mark, Seq: seq}:
			// Consumed (or buffered): hand the server its credit back.
			s.mx.writeRaw(wire.MsgCredit, wire.EncodeCredit(s.id, 1))
		case <-s.closed:
			// The subscriber stopped consuming mid-close. The server
			// already counts this batch as delivered, so it is not in
			// any handed-off state — keep it for Detach to return.
			s.mu.Lock()
			s.discards = append(s.discards, SubBatch{Table: t, Watermark: mark, Seq: seq})
			s.mu.Unlock()
		}
	case wire.MsgWatermark:
		_, mark, err := wire.DecodeWatermark(payload)
		if err != nil {
			s.fail(err)
			return true
		}
		select {
		case s.out <- SubBatch{Table: nil, Watermark: mark}:
		case <-s.closed:
		default:
			// Watermark-only updates are droppable if the consumer is
			// behind; the next batch carries the mark anyway.
		}
	case wire.MsgCredit:
		_, n, err := wire.DecodeCredit(payload)
		if err != nil {
			s.fail(err)
			return true
		}
		s.mu.Lock()
		s.pubCredit += int64(n)
		s.mu.Unlock()
		s.pubCond.Broadcast()
	case wire.MsgWindowState:
		_, st, err := wire.DecodeWindowState(payload)
		if err != nil {
			s.fail(err)
		} else {
			s.mu.Lock()
			s.state = st
			s.mu.Unlock()
		}
		return true
	case wire.MsgStreamEnd:
		_, stats, err := wire.DecodeStreamEnd(payload)
		if err != nil {
			s.fail(err)
		} else {
			s.mu.Lock()
			s.stats = &stats
			s.mu.Unlock()
		}
		return true
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(payload)
		s.fail(fmt.Errorf("federation: subscription: %s", msg))
		return true
	default:
		s.fail(fmt.Errorf("federation: unexpected subscription frame %v", typ))
		return true
	}
	return false
}

func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the subscription's terminal error, if any.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// State returns the window state a detach handed back, if any (valid
// once the subscription has terminated). The merge loops use it to
// tell "partition detached" from "partition failed".
func (s *Subscription) State() *stream.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Publish pushes one event batch upstream (push-mode subscriptions),
// blocking while the publish window is exhausted.
func (s *Subscription) Publish(t *table.Table) error {
	s.mu.Lock()
	for s.pubCredit <= 0 {
		if s.err != nil || s.terminatedLocked() {
			err := s.err
			s.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("federation: publish on finished subscription")
			}
			return err
		}
		s.pubCond.Wait()
	}
	s.pubCredit--
	s.mu.Unlock()
	return s.mx.writeRaw(wire.MsgStreamPublish, wire.EncodeStreamPublish(s.id, t))
}

// terminatedLocked reports whether the reader has finished (s.mu held).
func (s *Subscription) terminatedLocked() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// EndInput ends a push-mode stream: the remote pipeline drains, flushes
// its final windows, and terminates with stats.
func (s *Subscription) EndInput() error {
	return s.mx.writeRaw(wire.MsgStreamClose, wire.EncodeStreamClose(s.id, wire.CloseEndInput))
}

// Detach stops the remote pipeline and returns its window state — the
// handoff object another provider (or a later reconnect) resumes from —
// plus any result batches that were already delivered and credited but
// not yet consumed. Those batches are NOT represented in the state (the
// server counts them as emitted), so the caller must process them before
// resuming.
func (s *Subscription) Detach() (*stream.State, []SubBatch, error) {
	s.mu.Lock()
	s.detaching = true
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.closed) })
	if err := s.mx.writeRaw(wire.MsgStreamClose, wire.EncodeStreamClose(s.id, wire.CloseDetach)); err != nil {
		return nil, nil, err
	}
	<-s.done
	// The reader is finished and s.out is closed: first whatever was
	// buffered for consumption, then whatever the reader had to set
	// aside during the handshake — that is their emission order.
	var pending []SubBatch
	for b := range s.out {
		pending = append(pending, b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pending = append(pending, s.discards...)
	if s.state == nil {
		if s.err != nil {
			return nil, pending, s.err
		}
		return nil, pending, fmt.Errorf("federation: detach returned no state")
	}
	return s.state, pending, nil
}

// Cancel aborts the subscription without asking for state.
func (s *Subscription) Cancel() error {
	s.closeOnce.Do(func() { close(s.closed) })
	if err := s.mx.writeRaw(wire.MsgStreamClose, wire.EncodeStreamClose(s.id, wire.CloseCancel)); err != nil {
		return err
	}
	<-s.done
	return nil
}

// Wait blocks until the stream terminates and returns its final stats.
func (s *Subscription) Wait() (*stream.Stats, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.stats, s.err
	}
	if s.stats == nil {
		return nil, fmt.Errorf("federation: subscription ended without stats")
	}
	return s.stats, nil
}

// Close abandons the subscription the way a dropped connection would,
// without severing a connection its siblings share: the server is asked
// to detach — a durable checkpoint is saved, never retired — and the
// subscription is cut loose from the demultiplexer without waiting for
// the state (the mux drops it as a late frame). When a Detach handshake
// is already in flight — a merge loop closing its partitions while the
// caller detaches them — Close lets the handshake finish instead.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.mu.Lock()
	detaching := s.detaching
	s.mu.Unlock()
	if !detaching {
		_ = s.mx.writeRaw(wire.MsgStreamClose, wire.EncodeStreamClose(s.id, wire.CloseDetach))
		s.mx.severSub(s.id)
	}
	<-s.done
}
