package service

import (
	"context"
	"time"
)

// Clock is the service's only source of time: retry backoff waits and
// per-job execution deadlines both go through it. The indirection is
// what keeps the retry/deadline test suite virtual-time — tests inject
// a clock they advance by hand and never sleep — and it confines the
// repo's wall-clock lint surface for the service to the one real
// implementation below. Job results never observe the clock: a timeout
// changes *whether* a spec produces bytes, never *which* bytes.
type Clock interface {
	// After returns a channel that delivers once, d from now.
	After(d time.Duration) <-chan time.Time
	// WithTimeout derives a context that is canceled with
	// context.DeadlineExceeded once d has elapsed.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time {
	// Retry backoff pacing only; job artifacts are a pure function of
	// the spec.
	return time.After(d)
}

func (realClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}
