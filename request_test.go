// Request-path tests: Submit/SubmitAll/Wait allocate nothing in steady
// state, and Request.Done keeps its contract — nil before Submit, a
// channel made only when one is asked for before completion, one shared
// closed channel otherwise — without ever waiting behind a device call.
// Run them under -race: the parked-observer and held-device cases are
// the concurrency half of the contract.
package envy_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"envy"
)

// requestDevice is the golden geometry with a 16-deep host queue.
func requestDevice(t *testing.T) *envy.Device {
	t.Helper()
	cfg := goldenConfig(envy.HybridPolicy)
	cfg.HostQueueDepth = 16
	dev, err := envy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// queuedWrite submits writes to fresh pages until one stays queued
// behind the full write buffer, and returns it. Its Done channel has
// been made (that is how the test sees it is still open).
func queuedWrite(t *testing.T, dev *envy.Device) *envy.Request {
	t.Helper()
	for a := uint64(0); a < uint64(dev.Size()); a += 256 {
		r := &envy.Request{Write: true, Addr: a, Data: make([]byte, 4)}
		if err := dev.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !isClosed(r.Done()) {
			return r
		}
	}
	t.Fatal("no write stayed queued")
	return nil
}

// TestRequestPathAllocs pins the steady-state request path at zero
// allocations: Submit+Wait at depth 16, and SubmitAll+Wait, on requests
// the caller built once. Neither a per-request Done channel nor a
// per-batch slice may come back.
func TestRequestPathAllocs(t *testing.T) {
	dev := requestDevice(t)
	const n = 16
	var data [n][8]byte
	reqs := make([]envy.Request, n)
	ptrs := make([]*envy.Request, n)
	for i := range ptrs {
		ptrs[i] = &reqs[i]
	}
	stage := func() {
		for i := range reqs {
			reqs[i] = envy.Request{Write: i%4 == 0, Addr: uint64(i) * 256, Data: data[i][:]}
		}
	}
	wait := func() {
		for _, r := range ptrs {
			if err := dev.Wait(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		round func()
	}{
		{"Submit+Wait", func() {
			stage()
			for _, r := range ptrs {
				if err := dev.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			wait()
		}},
		{"SubmitAll+Wait", func() {
			stage()
			if err := dev.SubmitAll(ptrs...); err != nil {
				t.Fatal(err)
			}
			wait()
		}},
	} {
		tc.round() // sizes the queue and the device's batch workspace
		if avg := testing.AllocsPerRun(100, tc.round); avg != 0 {
			t.Errorf("%s of %d requests allocates %.2f times per round, want 0", tc.name, n, avg)
		}
	}
}

// TestRequestDoneUnobserved: Done is nil before Submit, and requests
// nobody asked about complete without a channel of their own — every
// one of them answers a later Done with the same closed channel.
// Completed requests are single-use.
func TestRequestDoneUnobserved(t *testing.T) {
	dev := requestDevice(t)
	a := &envy.Request{Write: true, Addr: 0, Data: make([]byte, 4)}
	b := &envy.Request{Addr: 256, Data: make([]byte, 4)}
	if a.Done() != nil {
		t.Fatal("Done before Submit is non-nil")
	}
	if err := dev.SubmitAll(a, b); err != nil {
		t.Fatal(err)
	}
	dev.Drain()
	da, db := a.Done(), b.Done()
	if !isClosed(da) || !isClosed(db) {
		t.Fatal("Done not closed after Drain")
	}
	if da != db {
		t.Error("two requests completed unobserved have distinct Done channels: completion made one each")
	}
	if err := dev.Submit(a); err == nil {
		t.Error("resubmit of a completed request accepted by Submit")
	}
	if err := dev.SubmitAll(b); err == nil {
		t.Error("resubmit of a completed request accepted by SubmitAll")
	}
}

// TestRequestDoneParkedObserver parks goroutines on the Done channel of
// a queued request and completes it from another goroutine's Drain:
// every observer wakes and sees the completion-filled fields (the race
// detector checks the happens-before), and later calls return the same
// channel the observers got.
func TestRequestDoneParkedObserver(t *testing.T) {
	dev := requestDevice(t)
	r := queuedWrite(t, dev)
	ch := r.Done()
	const observers = 4
	var parked, woke sync.WaitGroup
	errs := make(chan error, observers)
	for i := 0; i < observers; i++ {
		parked.Add(1)
		woke.Add(1)
		go func() {
			defer woke.Done()
			done := r.Done()
			parked.Done()
			<-done
			if r.Completion == 0 {
				errs <- r.Err
			}
		}()
	}
	parked.Wait()
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		dev.Drain()
	}()
	woke.Wait()
	drained.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("observer woke before completion was filled in (Err %v)", err)
	}
	if r.Done() != ch {
		t.Error("Done after completion returns a different channel than before it")
	}
}

// TestRequestDoneWhileDeviceHeld calls Done while another goroutine
// holds the device inside a call (parked in an OnComplete callback):
// Done must not wait for it, on a completed request or a queued one. A
// Done that took the device mutex deadlocks here.
func TestRequestDoneWhileDeviceHeld(t *testing.T) {
	dev := requestDevice(t)
	done := &envy.Request{Addr: 512, Data: make([]byte, 4)}
	if err := dev.Submit(done); err != nil {
		t.Fatal(err)
	}
	if err := dev.Wait(done); err != nil {
		t.Fatal(err)
	}
	queued := queuedWrite(t, dev)
	qch := queued.Done()

	inside, release := make(chan struct{}), make(chan struct{})
	holder := &envy.Request{Addr: 768, Data: make([]byte, 4), OnComplete: func(*envy.Request) {
		close(inside)
		<-release
	}}
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		if err := dev.Submit(holder); err != nil {
			t.Error(err)
		}
		if err := dev.Wait(holder); err != nil {
			t.Error(err)
		}
	}()
	<-inside
	if !isClosed(done.Done()) {
		t.Error("completed request's Done is open")
	}
	if queued.Done() != qch {
		t.Error("queued request's Done changed while the device was held")
	}
	close(release)
	held.Wait()
	dev.Drain()
}

// TestRequestSubmitAllUnwind: a batch refused for its last request
// leaves the valid prefix unsubmitted — no Done channel, Wait refuses
// it, nothing written — and resubmittable.
func TestRequestSubmitAllUnwind(t *testing.T) {
	dev := requestDevice(t)
	w := &envy.Request{Write: true, Addr: 5 * 256, Data: make([]byte, 4)}
	binary.LittleEndian.PutUint32(w.Data, 0xfeedface)
	bad := &envy.Request{Addr: uint64(dev.Size()), Data: make([]byte, 4)}
	if err := dev.SubmitAll(w, bad); err == nil {
		t.Fatal("SubmitAll accepted an out-of-range request")
	}
	if w.Done() != nil {
		t.Error("unwound request has a Done channel")
	}
	if err := dev.Wait(w); err == nil {
		t.Error("Wait on an unwound request succeeded")
	}
	if err := dev.Submit(w); err != nil {
		t.Fatalf("resubmit of an unwound request: %v", err)
	}
	if err := requestDevice(t).Wait(w); err == nil {
		t.Error("Wait on another device's request succeeded")
	}
	if err := dev.Wait(w); err != nil {
		t.Fatal(err)
	}
	var word [4]byte
	dev.Read(word[:], 5*256)
	if got := binary.LittleEndian.Uint32(word[:]); got != 0xfeedface {
		t.Errorf("page 5 reads %#x after the resubmitted write, want 0xfeedface", got)
	}
}
