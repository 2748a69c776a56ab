// Package memsys clones the shape of the real memory system the
// shared-l2 check guards: the free-running L2 (NewL2 and its methods)
// and the ordered, per-port L2 concurrent code must use instead.
package memsys

// Config sizes a cache.
type Config struct {
	Lines int
}

// DefaultConfig returns a small cache geometry.
func DefaultConfig() Config { return Config{Lines: 64} }

// L2 is the immediate, free-running cache.
type L2 struct {
	tags []uint64
}

// NewL2 builds the free-running cache.
func NewL2(cfg Config) *L2 { return &L2{tags: make([]uint64, cfg.Lines)} }

// Access reports whether addr hits, then installs it.
func (l *L2) Access(addr uint64) bool {
	i := addr % uint64(len(l.tags))
	hit := l.tags[i] == addr
	l.tags[i] = addr
	return hit
}

// OrderedL2 serves per-port queues in a fixed order.
type OrderedL2 struct {
	l2    *L2
	ports int
}

// NewOrderedL2 builds the ordered cache with one port per SMX.
func NewOrderedL2(cfg Config, ports int) *OrderedL2 {
	return &OrderedL2{l2: NewL2(cfg), ports: ports}
}

// Drain replays the queued requests in port order.
func (o *OrderedL2) Drain() {}
