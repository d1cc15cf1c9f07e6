package main

import (
	"syscall"
	"time"
)

// warmPool makes the memory the servers are about to use cheap to touch, and
// keeps it so for the whole run. It exists because of the sandbox this was
// built in (README, "Sandbox caveats"): the VM reports free memory to its
// host in blocks of 1 MiB, the host drops those pages, and the next touch of
// one costs 10-100 µs instead of 2, depending on what the host is doing that
// minute. A server with a 1 GB heap that is spawned a dozen times per run
// then moves every timing by tens of percent between runs of the same code.
//
// The pool is anonymous memory that is touched once — that is where the
// host's price is paid, before set-up and in no metric — and then given back
// to the kernel except for one page in every 32. The pages kept are spread
// through the physical blocks the pool came from, so what is freed can never
// merge into a 1 MiB block: the kernel cannot report it, hands it out first
// (it prefers its smallest free blocks), and takes it back in the same
// fragments when a server is killed. The servers, their page cache and their
// successors live in that pool until close.
type warmPool struct {
	mem     []byte
	touched int
}

const (
	poolPage  = 4096
	poolKeep  = 32 * poolPage // one page in each run of this many stays held
	poolChunk = 64 << 20
	// poolBudget caps the time spent touching: a host that slow spoils the
	// run anyway, and the run must still end.
	poolBudget = 12 * time.Second
)

// newWarmPool touches up to size bytes (a multiple of poolChunk) and frees
// all but the pins. A failure to map only means noisier numbers, so it
// returns an empty pool, not an error.
func newWarmPool(size int) *warmPool {
	p := &warmPool{}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return p
	}
	p.mem = mem
	deadline := time.Now().Add(poolBudget)
	for ; p.touched < size && time.Now().Before(deadline); p.touched += poolChunk {
		for i := p.touched; i < p.touched+poolChunk; i += poolPage {
			mem[i] = 1
		}
	}
	for at := 0; at < p.touched; at += poolKeep {
		// An error leaves these pages held: a smaller pool.
		_ = syscall.Madvise(mem[at+poolPage:at+poolKeep], syscall.MADV_DONTNEED)
	}
	return p
}

// close lets go of the pins.
func (p *warmPool) close() {
	if p.mem != nil {
		syscall.Munmap(p.mem)
		p.mem = nil
	}
}
