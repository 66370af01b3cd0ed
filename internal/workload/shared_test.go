package workload

import (
	"context"
	"sync"
	"testing"
)

// TestSharedTracesReusesDecodedTrace: the second Get must return the
// very same in-memory trace, not a second generation.
func TestSharedTracesReusesDecodedTrace(t *testing.T) {
	s := NewSharedTraces("", 4)
	a, err := s.Get(context.Background(), "liver", 1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	b, err := s.Get(context.Background(), "liver", 1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if a != b {
		t.Fatalf("second Get returned a different trace instance")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestSharedTracesSingleFlight: concurrent requests for the same key
// share one flight and one result.
func TestSharedTracesSingleFlight(t *testing.T) {
	s := NewSharedTraces("", 4)
	const callers = 16
	results := make(chan any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := s.Get(context.Background(), "liver", 1)
			if err != nil {
				results <- err
				return
			}
			results <- tr
		}()
	}
	wg.Wait()
	close(results)
	var first any
	for r := range results {
		if err, ok := r.(error); ok {
			t.Fatalf("Get: %v", err)
		}
		if first == nil {
			first = r
			continue
		}
		if r != first {
			t.Fatalf("concurrent callers got distinct trace instances")
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (single flight)", s.Len())
	}
}

// TestSharedTracesEviction: the LRU stays within its budget and evicts
// the coldest entry.
func TestSharedTracesEviction(t *testing.T) {
	s := NewSharedTraces("", 2)
	ctx := context.Background()
	for _, name := range []string{"liver", "ccom", "yacc"} {
		if _, err := s.Get(ctx, name, 1); err != nil {
			t.Fatalf("Get %s: %v", name, err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", s.Len())
	}
	// liver was coldest and must have been evicted; a re-Get works
	// (regenerates) and evicts the next-coldest in turn.
	if _, err := s.Get(ctx, "liver", 1); err != nil {
		t.Fatalf("re-Get after eviction: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after re-Get", s.Len())
	}
}

// TestSharedTracesWaiterHonorsContext: a waiter blocked on another
// session's flight leaves promptly when its own ctx dies.
func TestSharedTracesWaiterHonorsContext(t *testing.T) {
	s := NewSharedTraces("", 4)
	key := sharedKey{"liver", 1}
	// Install a never-finishing flight by hand so the waiter must rely
	// on its context.
	s.mu.Lock()
	s.entries[key] = &sharedEntry{ready: make(chan struct{})}
	s.order = append(s.order, key)
	s.inflight++
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Get(ctx, "liver", 1); err != context.Canceled {
		t.Fatalf("Get on dead ctx = %v, want context.Canceled", err)
	}
}

// TestSharedTracesErrorNotCached: a failed flight is retried by the
// next Get instead of pinning the error forever.
func TestSharedTracesErrorNotCached(t *testing.T) {
	s := NewSharedTraces("", 4)
	if _, err := s.Get(context.Background(), "no-such-workload", 1); err == nil {
		t.Fatalf("Get of unknown workload should fail")
	}
	if s.Len() != 0 {
		t.Fatalf("failed flight was cached; Len = %d, want 0", s.Len())
	}
}
