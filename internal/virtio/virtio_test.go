package virtio

import (
	"testing"

	"demeter/internal/sim"
)

func TestSubmitCompleteRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "test", 8)
	var handledAt, completedAt sim.Time
	q.SetHandler(func(r *Request) {
		handledAt = eng.Now()
		r.Response = "pong"
		q.Complete(r)
	})
	var gotResponse interface{}
	req := &Request{Kind: 1, Payload: "ping", OnComplete: func(r *Request) {
		completedAt = eng.Now()
		gotResponse = r.Response
	}}
	if !q.Submit(req) {
		t.Fatal("submit rejected on empty queue")
	}
	eng.RunUntilIdle()
	if gotResponse != "pong" {
		t.Fatalf("response = %v", gotResponse)
	}
	if handledAt != KickLatency {
		t.Fatalf("handled at %v, want kick latency %v", handledAt, KickLatency)
	}
	if completedAt != KickLatency+IRQLatency {
		t.Fatalf("completed at %v", completedAt)
	}
	st := q.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Kicks != 1 || st.IRQs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Inflight() != 0 {
		t.Fatalf("inflight = %d", q.Inflight())
	}
}

func TestAsynchronousCompletion(t *testing.T) {
	// The responder may hold the request and complete it much later (the
	// guest workqueue pattern); the initiator must not be blocked.
	eng := sim.NewEngine()
	q := NewQueue(eng, "async", 8)
	var pending *Request
	q.SetHandler(func(r *Request) {
		pending = r
		eng.After(100*sim.Millisecond, func() { q.Complete(r) })
	})
	done := false
	q.Submit(&Request{OnComplete: func(*Request) { done = true }})
	eng.Run(50 * sim.Millisecond)
	if done {
		t.Fatal("completed too early")
	}
	if pending == nil {
		t.Fatal("handler never ran")
	}
	eng.RunUntilIdle()
	if !done {
		t.Fatal("never completed")
	}
}

func TestRingFullRejectsSubmission(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "full", 2)
	q.SetHandler(func(r *Request) {}) // never completes
	if !q.Submit(&Request{}) || !q.Submit(&Request{}) {
		t.Fatal("first two submissions should succeed")
	}
	if q.Submit(&Request{}) {
		t.Fatal("third submission should be rejected")
	}
	if q.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", q.Stats().Rejected)
	}
}

func TestDescriptorsFreedByCompletion(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "free", 1)
	q.SetHandler(func(r *Request) { q.Complete(r) })
	q.Submit(&Request{})
	if q.Submit(&Request{}) {
		t.Fatal("ring of 1 accepted 2 in-flight requests")
	}
	eng.RunUntilIdle()
	if !q.Submit(&Request{}) {
		t.Fatal("descriptor not freed after completion")
	}
	eng.RunUntilIdle()
}

func TestDoubleCompletePanics(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "dup", 4)
	q.SetHandler(func(r *Request) {
		q.Complete(r)
		defer func() {
			if recover() == nil {
				t.Error("double completion did not panic")
			}
		}()
		q.Complete(r)
	})
	q.Submit(&Request{})
	eng.RunUntilIdle()
}

func TestSubmitWithoutHandlerPanics(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "nohandler", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("submit without handler did not panic")
		}
	}()
	q.Submit(&Request{})
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size queue did not panic")
		}
	}()
	NewQueue(sim.NewEngine(), "bad", 0)
}

func TestOrderingPreserved(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "order", 16)
	var handled []int
	q.SetHandler(func(r *Request) {
		handled = append(handled, r.Kind)
		q.Complete(r)
	})
	for i := 0; i < 10; i++ {
		q.Submit(&Request{Kind: i})
	}
	eng.RunUntilIdle()
	for i, k := range handled {
		if k != i {
			t.Fatalf("handled order = %v", handled)
		}
	}
}
