package faultsim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedIsFree(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("enabled with no faults")
	}
	if Hook("any", context.Background()) != nil {
		t.Error("hook for unarmed workload")
	}
	if ShouldCorrupt("any") {
		t.Error("corrupt for unarmed workload")
	}
}

func TestPanicFiresAfterNPolls(t *testing.T) {
	defer Reset()
	Inject("w", Fault{Kind: Panic, After: 2})
	hook := Hook("w", context.Background())
	if hook == nil {
		t.Fatal("no hook for armed panic")
	}
	for i := 0; i < 2; i++ {
		if err := hook(); err != nil {
			t.Fatalf("poll %d errored: %v", i, err)
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("third poll did not panic")
		}
		if !strings.Contains(r.(string), "injected panic in w") {
			t.Errorf("panic value = %v", r)
		}
	}()
	hook() // third poll: After=2 exhausted
}

func TestStallBlocksUntilCancel(t *testing.T) {
	defer Reset()
	Inject("w", Fault{Kind: Stall})
	ctx, cancel := context.WithCancel(context.Background())
	hook := Hook("w", ctx)

	done := make(chan error, 1)
	go func() { done <- hook() }()
	select {
	case err := <-done:
		t.Fatalf("stall returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stall returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("stall did not release on cancel")
	}
}

func TestTimesDisarmsTransientFault(t *testing.T) {
	defer Reset()
	Inject("w", Fault{Kind: Corrupt, Times: 1})
	if !ShouldCorrupt("w") {
		t.Fatal("first trigger suppressed")
	}
	if ShouldCorrupt("w") {
		t.Error("transient fault fired twice")
	}
}

func TestFaultsAreKindAndWorkloadScoped(t *testing.T) {
	defer Reset()
	Inject("w", Fault{Kind: Corrupt})
	if ShouldCorrupt("other") {
		t.Error("fault leaked to another workload")
	}
	if Hook("w", context.Background()) != nil {
		t.Error("corrupt fault produced an interpreter hook")
	}
	if !ShouldCorrupt("w") {
		t.Error("armed corrupt fault did not fire")
	}
}

func TestInjectReplacesAndResetDisarms(t *testing.T) {
	Inject("w", Fault{Kind: Corrupt})
	Inject("w", Fault{Kind: Stall})
	if ShouldCorrupt("w") {
		t.Error("replaced fault still armed")
	}
	Reset()
	if Enabled() {
		t.Error("enabled after Reset")
	}
}
