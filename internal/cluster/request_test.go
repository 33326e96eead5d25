package cluster

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// pageOn returns the first namespace page routed to member m, skipping
// the pages in skip.
func pageOn(t *testing.T, c *Cluster, m int, skip ...int) int {
	t.Helper()
next:
	for p, rt := range c.dir {
		if int(rt.member) != m {
			continue
		}
		for _, s := range skip {
			if p == s {
				continue next
			}
		}
		return p
	}
	t.Fatalf("no page on member %d", m)
	return -1
}

// smallBufferCluster is two members whose 64-page write buffers fill
// quickly, so that writes queue behind them.
func smallBufferCluster(t *testing.T) *Cluster {
	t.Helper()
	mc := DefaultMemberConfig()
	mc.BufferPages = 64
	mc.AdaptiveDepth = false
	c, err := New(Config{Members: 2, Member: mc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// queuedWrite submits writes to fresh pages until one stays queued
// behind its member's full write buffer, and returns it with its page.
func queuedWrite(t *testing.T, c *Cluster) (*Request, int) {
	t.Helper()
	for p := 0; p < c.Pages(); p++ {
		r := &Request{Write: true, Addr: uint64(p) * uint64(c.PageSize()), Data: make([]byte, 8)}
		if err := c.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !isClosed(r.Done()) {
			return r, p
		}
	}
	t.Fatal("no write stayed queued")
	return nil, -1
}

// TestClusterSubmitAllRefusedBatch is the regression test for a batch
// refused by a malformed request after valid ones: nothing of it may be
// submitted, so Wait must not acknowledge the valid write, and the
// write must be resubmittable.
func TestClusterSubmitAllRefusedBatch(t *testing.T) {
	c := testCluster(t, 2)
	ps := uint64(c.PageSize())
	w := &Request{Write: true, Addr: 5 * ps, Data: make([]byte, 4)}
	binary.LittleEndian.PutUint32(w.Data, 0xfeedface)
	bad := &Request{Addr: uint64(c.Pages()) * ps, Data: make([]byte, 4)}
	if err := c.SubmitAll(w, bad); err == nil {
		t.Fatal("SubmitAll accepted a request beyond the namespace")
	}
	if w.Done() != nil {
		t.Error("request of a refused batch has a Done channel")
	}
	if err := c.Wait(w); err == nil {
		t.Errorf("Wait acknowledged a write of a refused batch (Completion %v)", w.Completion)
	}
	word := make([]byte, 4)
	if _, err := c.Read(word, 5*ps); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(word); got == 0xfeedface {
		t.Error("a write of a refused batch reached the device")
	}
	if err := c.Submit(w); err != nil {
		t.Fatalf("resubmit of a request of a refused batch: %v", err)
	}
	if err := c.Wait(w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(word, 5*ps); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(word); got != 0xfeedface {
		t.Errorf("page 5 reads %#x after the resubmitted write, want 0xfeedface", got)
	}
	if st := c.Stats(); st.Submitted != 1 {
		t.Errorf("%d requests counted as submitted, want 1", st.Submitted)
	}
}

// TestClusterDoneUnobserved: Done is nil before Submit, and requests
// on different members that nobody asked about complete without a
// channel of their own — they answer a later Done with the same closed
// channel. Completed requests are single-use.
func TestClusterDoneUnobserved(t *testing.T) {
	c := testCluster(t, 2)
	ps := uint64(c.PageSize())
	a := &Request{Write: true, Addr: uint64(pageOn(t, c, 0)) * ps, Data: make([]byte, 8)}
	b := &Request{Addr: uint64(pageOn(t, c, 1)) * ps, Data: make([]byte, 8)}
	if a.Done() != nil {
		t.Fatal("Done before Submit is non-nil")
	}
	if err := c.SubmitAll(a, b); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	da, db := a.Done(), b.Done()
	if !isClosed(da) || !isClosed(db) {
		t.Fatal("Done not closed after Drain")
	}
	if da != db {
		t.Error("two requests completed unobserved have distinct Done channels: completion made one each")
	}
	if err := c.Submit(a); err == nil {
		t.Error("resubmit of a completed request accepted by Submit")
	}
	if err := c.SubmitAll(b); err == nil {
		t.Error("resubmit of a completed request accepted by SubmitAll")
	}
}

// TestClusterDoneLocal covers requests the tier completes itself
// because their member is down: Done is nil before Submit and one
// shared closed channel after, the request is single-use, and a batch
// refused for a malformed request completes none of them.
func TestClusterDoneLocal(t *testing.T) {
	c := testCluster(t, 2)
	c.CrashPowerCycle(1)
	ps := uint64(c.PageSize())
	addr := uint64(pageOn(t, c, 1)) * ps
	r1 := &Request{Write: true, Addr: addr, Data: make([]byte, 8)}
	r2 := &Request{Addr: addr, Data: make([]byte, 8)}
	if r1.Done() != nil {
		t.Fatal("Done before Submit is non-nil")
	}
	var down *ShardDownError
	if err := c.Submit(r1); !errors.As(err, &down) {
		t.Fatalf("Submit to a down shard: %v", err)
	}
	if err := c.SubmitAll(r2); err != nil {
		t.Fatal(err)
	}
	if !isClosed(r1.Done()) || r1.Done() != r2.Done() {
		t.Error("locally completed requests do not share one closed Done channel")
	}
	if err := c.Wait(r2); !errors.As(err, &down) {
		t.Errorf("Wait on a locally completed request: %v", err)
	}
	if err := c.Submit(r1); err == nil {
		t.Error("resubmit of a locally completed request accepted")
	}

	ran := false
	r3 := &Request{Addr: addr, Data: make([]byte, 8), OnComplete: func(*Request) { ran = true }}
	bad := &Request{Addr: uint64(c.Pages()) * ps, Data: make([]byte, 8)}
	if err := c.SubmitAll(r3, bad); err == nil {
		t.Fatal("SubmitAll accepted a request beyond the namespace")
	}
	if ran || r3.Done() != nil || r3.Err != nil {
		t.Error("a refused batch completed its down-shard request")
	}
	if st := c.Stats(); st.Rejected != 2 {
		t.Errorf("%d requests rejected at the down shard, want 2", st.Rejected)
	}
}

// TestClusterDoneParkedObserver parks goroutines on the Done channel of
// a request queued on a member and completes it from another
// goroutine's Drain; every observer must wake after the completion
// fields are filled in.
func TestClusterDoneParkedObserver(t *testing.T) {
	c := smallBufferCluster(t)
	r, _ := queuedWrite(t, c)
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
		c.Drain()
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

// TestClusterDoneWhileMemberHeld calls Done while another goroutine
// holds the member inside a device call (parked in an OnComplete
// callback): Done must not wait for it, on a completed request or on a
// queued one.
func TestClusterDoneWhileMemberHeld(t *testing.T) {
	c := smallBufferCluster(t)
	queued, qpage := queuedWrite(t, c)
	qch := queued.Done()
	ps := uint64(c.PageSize())
	done := &Request{Addr: uint64(pageOn(t, c, queued.Shard, qpage)) * ps, Data: make([]byte, 8)}
	if err := c.Submit(done); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(done); err != nil {
		t.Fatal(err)
	}

	inside, release := make(chan struct{}), make(chan struct{})
	holder := &Request{Addr: done.Addr, Data: make([]byte, 8), OnComplete: func(*Request) {
		close(inside)
		<-release
	}}
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		if err := c.Submit(holder); err != nil {
			t.Error(err)
		}
		if err := c.Wait(holder); err != nil {
			t.Error(err)
		}
	}()
	<-inside
	if !isClosed(done.Done()) {
		t.Error("completed request's Done is open")
	}
	if queued.Done() != qch {
		t.Error("queued request's Done changed while its member was held")
	}
	close(release)
	held.Wait()
	c.Drain()
}
