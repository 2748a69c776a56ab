package conc

// L2 shares the free-running cache's name and method, but not its
// package.
type L2 struct{}

// Access always hits.
func (L2) Access(addr uint64) bool { return true }

func runOther() {
	var l2 L2
	go func() {}()
	l2.Access(0)
}
