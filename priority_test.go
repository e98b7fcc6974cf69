package nimble

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"nimble/internal/models"
)

// waitParked blocks until n requests have parked in svc's session queue.
func waitParked(t *testing.T, svc *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.pool.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests parked", svc.pool.Stats().Waits, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPriorityOnMergedEntry: WithPriority holds on a row-separable entry.
// With the only session held, a full merge's worth of lane-1 requests
// queue, then one lane-0 request, then a plain checkout. The lane-0
// request leads the first dispatch (merging all but the last lane-1
// request), and the checkout is served before that last lane-1 request.
func TestPriorityOnMergedEntry(t *testing.T) {
	const lane1 = 16
	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 9})
	p, err := Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := p.Serve(WithWorkers(1), WithPriorityLanes(2), WithMaxQueue(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	held, err := svc.pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	send := func(lane int) chan error {
		done := make(chan error, 1)
		in := TensorValue(m.RandomBatch(rng, 1))
		go func() {
			_, err := svc.InvokeOpts(ctx, "main", []Value{in}, WithPriority(lane))
			done <- err
		}()
		return done
	}
	var low []chan error
	for i := 0; i < lane1; i++ {
		low = append(low, send(1))
		waitParked(t, svc, int64(i+1))
	}
	high := send(0)
	waitParked(t, svc, lane1+1)
	reacquired := make(chan bool, 1)
	go func() {
		s, err := svc.pool.Acquire(ctx)
		if err == nil {
			<-reacquired
			svc.pool.Release(s)
		}
	}()
	waitParked(t, svc, lane1+2)
	svc.pool.Release(held)

	wait := func(name string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not finish before the re-held session", name)
		}
	}
	wait("lane-0 request", high)
	for i := 0; i < lane1-1; i++ {
		wait("lane-1 request", low[i])
	}
	// The checkout now holds the session: the last lane-1 request, which
	// did not fit in the lane-0 leader's merge, must still be waiting.
	select {
	case <-low[lane1-1]:
		t.Fatal("last lane-1 request ran before the lane-0 traffic queued after it")
	case <-time.After(20 * time.Millisecond):
	}
	reacquired <- true
	wait("last lane-1 request", low[lane1-1])
	if b := svc.Stats().Batchers[0]; b.Batches != 1 || b.LargestBatch != lane1 || b.Singles != 1 {
		t.Errorf("merge counters %+v: want one merged dispatch of %d and one single", b, lane1)
	}
}
