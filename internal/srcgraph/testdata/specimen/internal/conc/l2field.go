package conc

import "specimen/internal/memsys"

type device struct {
	l2 *memsys.L2
}

func (d *device) run() {
	done := make(chan struct{})
	go func() {
		d.l2.Access(0x40) // want shared-l2
		close(done)
	}()
	<-done
}
