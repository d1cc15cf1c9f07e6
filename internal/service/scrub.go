package service

import (
	"context"
	"sync"
	"time"

	"graphsketch/internal/runtime"
)

// ScrubConfig parameterizes a node's background integrity scrubber.
type ScrubConfig struct {
	// Every is the scrub interval (default 5s). One round verifies every
	// loaded tenant: live digest tree, published epoch clone, and the WAL
	// files on disk re-read byte for byte.
	Every time.Duration
}

func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.Every <= 0 {
		c.Every = 5 * time.Second
	}
	return c
}

// ScrubReport is one tenant's scrub verdict.
type ScrubReport struct {
	Tenant string `json:"tenant"`
	// Which of the three surfaces verified clean BEFORE any repair.
	LiveOK  bool `json:"live_ok"`
	DiskOK  bool `json:"disk_ok"`
	EpochOK bool `json:"epoch_ok"`
	// Repaired names the local repair that restored integrity: "snapshot"
	// (live clean, disk rewritten from it), "recover" (disk clean, live
	// rebuilt from the WAL mirror), "republish" (only the epoch clone had
	// rotted), or "" when nothing was needed or nothing sufficed.
	Repaired string `json:"repaired,omitempty"`
	// Quarantined reports that the tenant is fenced (this round or a
	// previous one) pending peer repair.
	Quarantined bool   `json:"quarantined,omitempty"`
	Err         string `json:"err,omitempty"`
}

// Clean reports a fully healthy verdict.
func (r ScrubReport) Clean() bool {
	return r.LiveOK && r.DiskOK && r.EpochOK && !r.Quarantined
}

// ScrubRound aggregates one scrub pass over all loaded tenants.
type ScrubRound struct {
	Tenants     int
	Clean       int
	Repaired    int
	Quarantined int
	Reports     []ScrubReport
}

// ScrubTenant verifies one tenant's integrity end to end, serialized with
// its ingest: the live bundle's banks against its maintained digests, the
// published epoch clone the same way, and the WAL files on disk re-read
// against the in-memory mirror. Single-surface rot is repaired locally
// from whichever copy is still clean (disk from live, live from disk,
// epoch from live); rot on both sides of a repair pair quarantines the
// tenant — only a peer's verified state can help then. An
// already-quarantined tenant reports its fence without re-scrubbing.
func (s *Server) ScrubTenant(ctx context.Context, name string) (ScrubReport, error) {
	rep := ScrubReport{Tenant: name, LiveOK: true, DiskOK: true, EpochOK: true}
	t, err := s.Tenant(name, false)
	if err != nil {
		return rep, err
	}
	if t.Quarantined() {
		rep.Quarantined = true
		rep.Err = t.QuarantineReason()
		return rep, nil
	}
	_, err = t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		liveErr := live.VerifyDigests()
		diskErr := w.VerifyDisk()
		var epochErr error
		if ep := t.snap.Load(); ep != nil {
			ep.mu.Lock()
			epochErr = ep.Bundle.VerifyDigests()
			ep.mu.Unlock()
		}
		rep.LiveOK, rep.DiskOK, rep.EpochOK = liveErr == nil, diskErr == nil, epochErr == nil
		quarantine := func(cause error) {
			t.setQuarantine(cause.Error())
			rep.Quarantined = true
			rep.Err = cause.Error()
			s.met.ScrubFailed.Add(1)
		}
		switch {
		case liveErr != nil && diskErr != nil:
			// Both copies are suspect: nothing local is trustworthy enough to
			// repair from. Position is preserved; a peer repair must resolve it.
			quarantine(liveErr)
		case diskErr != nil:
			// Live verified clean: rewrite both files from it. By linearity the
			// snapshot is the complete durable state, so this is a full repair.
			if err := w.Snapshot(live); err != nil {
				quarantine(err)
				return nil
			}
			if err := w.VerifyDisk(); err != nil {
				quarantine(err)
				return nil
			}
			rep.Repaired = "snapshot"
			s.met.ScrubRepaired.Add(1)
		case liveErr != nil || epochErr != nil:
			if liveErr == nil {
				// Only the published clone rotted; the live state is clean, so a
				// republish replaces the bad epoch wholesale.
				t.publish(w, live)
				rep.Repaired = "republish"
				s.met.ScrubRepaired.Add(1)
				return nil
			}
			// Disk verified clean: deterministic replay of snapshot + log
			// rebuilds the exact pre-rot live state from the WAL mirror.
			sk, _, rerr := w.Recover(func() runtime.Sketch { return NewBundle(s.cfg.Bundle) })
			if rerr != nil {
				quarantine(rerr)
				return nil
			}
			*live = *sk.(*Bundle)
			t.publish(w, live)
			rep.Repaired = "recover"
			s.met.ScrubRepaired.Add(1)
		}
		return nil
	}})
	return rep, err
}

// Scrubber is the background integrity loop: every interval it scrubs all
// loaded tenants through Server.ScrubTenant. It is the detection half of
// the silent-corruption defense; repair beyond the local cases is the
// syncer's job once a tenant is quarantined.
type Scrubber struct {
	srv *Server
	cfg ScrubConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewScrubber builds a scrubber for srv.
func NewScrubber(srv *Server, cfg ScrubConfig) *Scrubber {
	return &Scrubber{srv: srv, cfg: cfg.withDefaults(), stop: make(chan struct{}), done: make(chan struct{})}
}

// Run loops scrub rounds every cfg.Every until Stop (or the server is
// killed). Call in a goroutine; Stop blocks until the loop exits.
func (sc *Scrubber) Run() {
	defer close(sc.done)
	ticker := time.NewTicker(sc.cfg.Every)
	defer ticker.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-sc.srv.killed:
			return
		case <-ticker.C:
			sc.RunOnce(context.Background())
		}
	}
}

// Stop halts the loop and waits for the in-flight round to finish.
func (sc *Scrubber) Stop() {
	sc.stopOnce.Do(func() { close(sc.stop) })
	<-sc.done
}

// RunOnce scrubs every loaded tenant once. Exported so tests and the sim
// drive detection deterministically without timers.
func (sc *Scrubber) RunOnce(ctx context.Context) ScrubRound {
	var round ScrubRound
	sc.srv.met.ScrubRounds.Add(1)
	for _, name := range sc.srv.TenantNames() {
		rep, err := sc.srv.ScrubTenant(ctx, name)
		if err != nil {
			continue // unloaded mid-round or server stopping
		}
		round.Tenants++
		round.Reports = append(round.Reports, rep)
		switch {
		case rep.Quarantined:
			round.Quarantined++
		case rep.Repaired != "":
			round.Repaired++
		default:
			round.Clean++
		}
	}
	return round
}
