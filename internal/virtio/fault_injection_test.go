package virtio

import (
	"testing"

	"demeter/internal/fault"
	"demeter/internal/sim"
)

func TestQueueStallDelaysDelivery(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "stalled", 8)
	q.Fault = fault.NewInjector(1)
	q.Fault.ArmMagnitude(FaultQueueStall, 1, 16)
	var handledAt sim.Time
	q.SetHandler(func(r *Request) {
		handledAt = eng.Now()
		q.Complete(r)
	})
	q.Submit(&Request{})
	eng.RunUntilIdle()
	if handledAt <= KickLatency {
		t.Fatalf("handled at %v despite stall; want > kick latency %v", handledAt, KickLatency)
	}
	if q.Stats().StalledKicks != 1 {
		t.Fatalf("stats = %+v, want 1 stalled kick", q.Stats())
	}
}

func TestDroppedCompletionKeepsRequestInflight(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "droppy", 8)
	q.Fault = fault.NewInjector(1)
	q.Fault.Arm(FaultCompletionDrop, 1)
	q.SetHandler(func(r *Request) { q.Complete(r) })
	done := false
	req := &Request{OnComplete: func(*Request) { done = true }}
	q.Submit(req)
	eng.RunUntilIdle()
	if done {
		t.Fatal("completion delivered despite dropped IRQ")
	}
	if q.Inflight() != 1 {
		t.Fatalf("inflight = %d; a dropped IRQ must not silently reap", q.Inflight())
	}
	st := q.Stats()
	if st.DroppedIRQs != 1 || st.IRQs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPollRecoversDroppedCompletion(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "pollme", 8)
	q.Fault = fault.NewInjector(1)
	q.Fault.Arm(FaultCompletionDrop, 1)
	q.SetHandler(func(r *Request) { q.Complete(r) })
	completions := 0
	req := &Request{OnComplete: func(*Request) { completions++ }}
	q.Submit(req)
	eng.RunUntilIdle()

	if !q.Poll(req) {
		t.Fatal("poll must reap a completed-but-unsignalled request")
	}
	if completions != 1 {
		t.Fatalf("OnComplete ran %d times, want exactly 1", completions)
	}
	if q.Inflight() != 0 {
		t.Fatalf("inflight = %d after poll", q.Inflight())
	}
	st := q.Stats()
	if st.PollRecovered != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Polling again is idempotent: reaped is reaped, never re-delivered.
	if !q.Poll(req) {
		t.Fatal("poll of an already-reaped request should report done")
	}
	if completions != 1 {
		t.Fatal("double poll re-ran OnComplete")
	}
}

func TestPollOnPendingRequestReportsNotDone(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "pending", 8)
	var held *Request
	q.SetHandler(func(r *Request) { held = r })
	req := &Request{}
	q.Submit(req)
	eng.RunUntilIdle()
	if held == nil {
		t.Fatal("handler never ran")
	}
	if q.Poll(req) {
		t.Fatal("poll reported completion for a request the responder still holds")
	}
	q.Complete(held)
	eng.RunUntilIdle()
	if !req.Done() {
		t.Fatal("request not done after completion")
	}
}

func TestExactlyOnceWhenIRQRacesWithPoll(t *testing.T) {
	// IRQ delivered normally; a redundant Poll afterwards must not
	// double-reap.
	eng := sim.NewEngine()
	q := NewQueue(eng, "race", 8)
	q.SetHandler(func(r *Request) { q.Complete(r) })
	completions := 0
	req := &Request{OnComplete: func(*Request) { completions++ }}
	q.Submit(req)
	eng.RunUntilIdle()
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if !q.Poll(req) {
		t.Fatal("poll of completed request should report done")
	}
	if completions != 1 {
		t.Fatalf("poll after IRQ re-delivered completion (%d)", completions)
	}
	if q.Stats().PollRecovered != 0 {
		t.Fatal("a normally-IRQed request must not count as poll-recovered")
	}
}
