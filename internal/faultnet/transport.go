// Package faultnet runs the paper's distributed protocol (Sec. 1.1: sites
// sketch slices of the stream, a coordinator adds the results) on the stack
// that ships, under seeded faults: service.Server sites with their WALs, fed
// and pulled by service.Client over HTTP through Transport. A site's whole
// contribution is one sealed payload (the one-message-per-site model of
// Filtser–Kapralov–Nouri), needed eventually and once, not promptly.
package faultnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"graphsketch/internal/hashing"
)

// FaultPlan is a seeded fault schedule; its probabilities are per request.
// A dropped request never reaches the server; a dropped reply reaches the
// client as an error after the server applied the request. A duplicate is
// re-sent, unfaulted, after up to maxDupLag later requests. Corruption
// flips one bit of a sealed body: an ingest, merge or sync request body or
// a payload response. JSON acks carry no checksum; TCP guards them.
type FaultPlan struct {
	Seed                                          uint64
	DropProb, DropReplyProb, DupProb, CorruptProb float64
	// DelayBase plus uniform jitter below DelayJitter is one round trip's
	// virtual latency, in microseconds.
	DelayBase, DelayJitter int64
}

const maxDupLag = 3

// NetStats counts the requests the transport carried.
type NetStats struct {
	Messages  int64 `json:"messages"`
	Bytes     int64 `json:"bytes"`
	Dropped   int64 `json:"dropped"`
	Duplicate int64 `json:"duplicated"`
	Corrupted int64 `json:"corrupted"`
}

// Transport is an http.RoundTripper applying a FaultPlan. Requests are
// serialized and every fault draws from one RNG in request order, so with a
// sequential caller a seed is a complete fault schedule. Time is virtual:
// delays and Sleep (wire it to Client.Sleep) advance a clock, and nothing
// waits.
type Transport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	plan    FaultPlan
	rng     *hashing.RNG
	now     int64 // virtual microseconds
	pending []dup
	sent    int             // requests carried
	cut     map[string]bool // unreachable hosts
	seen    map[string]bool // route and checksum of every sealed body carried
	stats   NetStats
	// resent counts sealed bodies carried again on the same route,
	// rejected the corrupted requests the server refused, stale the
	// duplicates it refused by position.
	resent, resentBytes, rejected, stale int64
}

type dup struct {
	req  *http.Request
	body []byte
	at   int // fire before request number at
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// NewTransport returns a Transport applying plan over base.
func NewTransport(plan FaultPlan, base http.RoundTripper) *Transport {
	return &Transport{base: base, plan: plan, rng: hashing.NewRNG(plan.Seed ^ 0x9e3779b97f4a7c15),
		cut: make(map[string]bool), seen: make(map[string]bool)}
}

// Sleep advances the virtual clock.
func (t *Transport) Sleep(d time.Duration) {
	t.mu.Lock()
	t.now += d.Microseconds()
	t.mu.Unlock()
}

// partition makes host unreachable.
func (t *Transport) partition(host string) {
	t.mu.Lock()
	t.cut[host] = true
	t.mu.Unlock()
}

// carry records a sealed body, counting it as resent if the same bytes
// already crossed the same route.
func (t *Transport) carry(route string, body []byte) {
	k := fmt.Sprintf("%s %x", route, crc64.Checksum(body, crcTable))
	if t.seen[k] {
		t.resent++
		t.resentBytes += int64(len(body))
	}
	t.seen[k] = true
}

func (t *Transport) flip(b []byte) []byte {
	c := bytes.Clone(b)
	bit := t.rng.Intn(len(c) * 8)
	c[bit/8] ^= 1 << (bit % 8)
	return c
}

// send performs one real round trip and reads the whole answer.
func (t *Transport) send(req *http.Request, body []byte) (*http.Response, []byte, error) {
	out := req.Clone(req.Context())
	out.Body, out.ContentLength, out.GetBody = http.NoBody, int64(len(body)), nil
	if len(body) > 0 {
		out.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	t.stats.Bytes += int64(len(data))
	return resp, data, err
}

// RoundTrip carries one request through the plan, after re-sending the
// duplicates whose lag ran out (their answers go nowhere).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent++
	var due []dup
	t.pending = slices.DeleteFunc(t.pending, func(d dup) bool {
		if d.at <= t.sent {
			due = append(due, d)
		}
		return d.at <= t.sent
	})
	for _, d := range due {
		t.stats.Messages++
		t.stats.Bytes += int64(len(d.body))
		if resp, _, err := t.send(d.req, d.body); err == nil && resp.StatusCode == http.StatusConflict {
			t.stale++
		}
	}

	t.stats.Messages++
	t.stats.Bytes += int64(len(body))
	p := req.URL.Path
	sealed := len(body) > 0 && req.Method == http.MethodPost &&
		(strings.HasSuffix(p, "/updates") || strings.HasSuffix(p, "/merge") || strings.HasSuffix(p, "/sync"))
	if sealed {
		t.carry(req.URL.String(), body)
	}
	if t.cut[req.URL.Host] {
		t.stats.Dropped++
		return nil, errors.New("faultnet: host unreachable")
	}
	t.now += t.plan.DelayBase
	if t.plan.DelayJitter > 0 {
		t.now += int64(t.rng.Intn(int(t.plan.DelayJitter)))
	}
	if t.rng.Float64() < t.plan.DupProb {
		t.stats.Duplicate++
		// The duplicate outlives this call, and so its deadline.
		t.pending = append(t.pending, dup{req.Clone(context.WithoutCancel(req.Context())), body, t.sent + 1 + t.rng.Intn(maxDupLag+1)})
	}
	if t.rng.Float64() < t.plan.DropProb {
		t.stats.Dropped++
		return nil, errors.New("faultnet: request dropped")
	}
	corrupted := sealed && t.rng.Float64() < t.plan.CorruptProb
	if corrupted {
		t.stats.Corrupted++
		body = t.flip(body)
	}
	resp, data, err := t.send(req, body)
	if err != nil {
		return nil, err
	}
	if corrupted && resp.StatusCode >= 400 && resp.StatusCode < 500 {
		t.rejected++
	}
	if t.rng.Float64() < t.plan.DropReplyProb {
		t.stats.Dropped++
		return nil, errors.New("faultnet: reply dropped")
	}
	if req.Method == http.MethodGet && strings.HasSuffix(p, "/payload") && resp.StatusCode == http.StatusOK {
		t.carry(req.URL.String(), data)
		if t.rng.Float64() < t.plan.CorruptProb {
			t.stats.Corrupted++
			data = t.flip(data)
		}
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(data)), int64(len(data))
	return resp, nil
}
