package storage

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// workGroup bounds the goroutines one read — a scan, an aggregate, a
// dataset load — runs at once to runtime.GOMAXPROCS(0), the caller's
// included. forEach calls nest (a dataset's segments outside, a
// segment's page reads and its pages inside) and draw on the one
// budget, so whichever level has more than one thing to do while a
// slot is free gets it: four surviving segments on two cores run two at
// a time with their pages parsed inline; a single surviving segment
// spreads its pages over both.
//
// A nil *workGroup runs everything on the caller.
type workGroup struct {
	// slots holds one token per goroutine beyond the caller.
	slots chan struct{}
}

func newWorkGroup() *workGroup {
	return &workGroup{slots: make(chan struct{}, runtime.GOMAXPROCS(0)-1)}
}

// forEach calls fn(0) … fn(n-1), each exactly once unless a call fails:
// after the first error no further index is started, and that error is
// returned. A call that panics fails with an error carrying the panic
// value and stack, so one bad read cannot take down the process from a
// worker goroutine. Every goroutine forEach started has exited when it
// returns, so a caller that retries (Store.readSnapshot) re-runs over
// nothing left behind. fn must be safe to call concurrently for
// distinct i.
func (g *workGroup) forEach(n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error
		wg     sync.WaitGroup
	)
	fail := func(err error) {
		if failed.CompareAndSwap(false, true) {
			first = err
		}
	}
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("storage: read worker panicked: %v\n%s", p, debug.Stack()))
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				fail(err) // the loop test now stops this worker
			}
		}
	}
	if g != nil {
	spawn:
		for extra := 1; extra < n; extra++ {
			select {
			case g.slots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() { <-g.slots; wg.Done() }()
					work()
				}()
			default:
				break spawn
			}
		}
	}
	work()
	wg.Wait()
	return first
}
