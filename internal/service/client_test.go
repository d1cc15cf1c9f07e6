package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsketch/internal/stream"
)

// traceRec records the exact endpoint sequence a client tried, plus every
// backoff sleep it decided on — the failover-ladder tests assert on both
// instead of wall-clock time.
type traceRec struct {
	mu     sync.Mutex
	hits   []string
	sleeps []time.Duration
}

func (r *traceRec) instrument(c *Client) {
	c.Trace = func(endpoint, method, path string) {
		r.mu.Lock()
		r.hits = append(r.hits, endpoint)
		r.mu.Unlock()
	}
	c.Sleep = func(d time.Duration) {
		r.mu.Lock()
		r.sleeps = append(r.sleeps, d)
		r.mu.Unlock()
	}
}

func (r *traceRec) endpoints() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.hits...)
}

func (r *traceRec) slept() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.sleeps...)
}

// deadEndpoint returns a URL whose port was just closed: dialing it gets
// connection refused deterministically.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return "http://" + addr
}

// TestClientRetryAfterHonored pins the throttle rung: 429 responses retry
// on the SAME endpoint and sleep exactly the server's Retry-After, capped
// by BackoffCap.
func TestClientRetryAfterHonored(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": "over budget"})
			return
		}
		w.Write([]byte(`{"acked":42}`))
	}))
	defer hs.Close()

	rec := &traceRec{}
	c := &Client{Base: hs.URL, HC: hs.Client(), Attempts: 4, BackoffCap: 3 * time.Second, JitterSeed: 7}
	rec.instrument(c)

	pos, err := c.Position("acme")
	if err != nil {
		t.Fatalf("position: %v", err)
	}
	if pos != 42 {
		t.Fatalf("pos = %d, want 42", pos)
	}
	want := []string{hs.URL, hs.URL, hs.URL}
	if got := rec.endpoints(); !equalStrings(got, want) {
		t.Fatalf("endpoint sequence %v, want %v (429 must not rotate)", got, want)
	}
	// Retry-After: 7 is under the 3s-equivalent? No — 7s exceeds the 3s cap,
	// so both sleeps must be clamped to exactly BackoffCap.
	slept := rec.slept()
	if len(slept) != 2 || slept[0] != 3*time.Second || slept[1] != 3*time.Second {
		t.Fatalf("sleeps %v, want exactly [3s 3s] (Retry-After capped by BackoffCap)", slept)
	}
}

// TestClientRetryAfterUnderCap: a Retry-After below the cap is honored
// verbatim, no jitter applied.
func TestClientRetryAfterUnderCap(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"acked":1}`))
	}))
	defer hs.Close()

	rec := &traceRec{}
	c := &Client{Base: hs.URL, HC: hs.Client(), JitterSeed: 7}
	rec.instrument(c)
	if _, err := c.Position("acme"); err != nil {
		t.Fatalf("position: %v", err)
	}
	if slept := rec.slept(); len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("sleeps %v, want exactly [1s]", slept)
	}
}

// TestClientConnRefusedFailover pins the transport rung: connection
// refused rotates to the next endpoint, and the client then STAYS on the
// endpoint that worked (stickiness).
func TestClientConnRefusedFailover(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"acked":9}`))
	}))
	defer hs.Close()
	dead := deadEndpoint(t)

	rec := &traceRec{}
	c := &Client{Endpoints: []string{dead, hs.URL}, Attempts: 4, JitterSeed: 7}
	rec.instrument(c)

	pos, err := c.Position("acme")
	if err != nil {
		t.Fatalf("position: %v", err)
	}
	if pos != 9 {
		t.Fatalf("pos = %d, want 9", pos)
	}
	if got, want := rec.endpoints(), []string{dead, hs.URL}; !equalStrings(got, want) {
		t.Fatalf("endpoint sequence %v, want %v", got, want)
	}
	if c.Current() != hs.URL {
		t.Fatalf("Current() = %s, want sticky %s", c.Current(), hs.URL)
	}
	// Second request must go straight to the live endpoint: no re-probe of
	// the dead one.
	if _, err := c.Position("acme"); err != nil {
		t.Fatalf("position 2: %v", err)
	}
	if got, want := rec.endpoints(), []string{dead, hs.URL, hs.URL}; !equalStrings(got, want) {
		t.Fatalf("endpoint sequence %v, want %v (sticky after failover)", got, want)
	}
}

// TestClient5xxFailover pins the server-error rung: a 500 rotates exactly
// like a transport error.
func TestClient5xxFailover(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"wal sealed"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"acked":3}`))
	}))
	defer good.Close()

	rec := &traceRec{}
	c := &Client{Endpoints: []string{bad.URL, good.URL}, JitterSeed: 7}
	rec.instrument(c)
	pos, err := c.Position("acme")
	if err != nil || pos != 3 {
		t.Fatalf("position = %d, %v; want 3, nil", pos, err)
	}
	if got, want := rec.endpoints(), []string{bad.URL, good.URL}; !equalStrings(got, want) {
		t.Fatalf("endpoint sequence %v, want %v", got, want)
	}
}

// TestClientDeadlineBoundedAttempts pins the deadline rung: a hung server
// burns exactly one attempt per endpoint rotation and the call returns
// after Attempts tries — never hangs, never spins.
func TestClientDeadlineBoundedAttempts(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()

	rec := &traceRec{}
	c := &Client{
		Base:        hung.URL,
		Timeout:     50 * time.Millisecond,
		Attempts:    3,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  80 * time.Millisecond,
		JitterSeed:  7,
	}
	rec.instrument(c)

	start := time.Now()
	_, err := c.Position("acme")
	if err == nil {
		t.Fatal("expected deadline error, got nil")
	}
	if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "Timeout") {
		t.Fatalf("error %v does not mention the deadline", err)
	}
	if got := rec.endpoints(); len(got) != 3 {
		t.Fatalf("made %d attempts, want exactly 3", len(got))
	}
	// Sleeps are stubbed, so total wall time is ~3 deadlines, bounded well
	// under a second; a livelock or un-stubbed sleep would blow this.
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("took %v, want bounded by deadlines only", el)
	}
	// Between 3 attempts there are exactly 2 backoffs, each within the
	// jitter envelope [d/2, d) of the capped exponential schedule.
	slept := rec.slept()
	if len(slept) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(slept))
	}
	for i, d := range slept {
		full := 10 * time.Millisecond << uint(i)
		if d < full/2 || d >= full {
			t.Fatalf("sleep[%d] = %v outside jitter envelope [%v, %v)", i, d, full/2, full)
		}
	}
}

// TestClientFatalNoRetry pins the fatal rung: a 404 returns immediately —
// exactly one attempt, no sleeps.
func TestClientFatalNoRetry(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown tenant"}`, http.StatusNotFound)
	}))
	defer hs.Close()

	rec := &traceRec{}
	c := &Client{Base: hs.URL, HC: hs.Client(), JitterSeed: 7}
	rec.instrument(c)
	_, err := c.Position("ghost")
	if err == nil {
		t.Fatal("expected 404 error")
	}
	if len(rec.endpoints()) != 1 || len(rec.slept()) != 0 {
		t.Fatalf("attempts=%d sleeps=%d, want 1 and 0 (4xx must not retry)", len(rec.endpoints()), len(rec.slept()))
	}
}

// TestClientBackoffDeterministic: two clients with the same JitterSeed
// draw identical sleep sequences, and a different seed diverges — the
// chaos sims rely on this for reproducible schedules.
func TestClientBackoffDeterministic(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		c := &Client{JitterSeed: seed, BackoffBase: 20 * time.Millisecond, BackoffCap: time.Second}
		var out []time.Duration
		for i := 0; i < 6; i++ {
			out = append(out, c.backoff(i))
		}
		return out
	}
	a, b, other := mk(99), mk(99), mk(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// fakeIngestServer is a stub replica speaking the position-addressed
// ingest protocol: batches must assert the current acked position or get
// a 409 carrying the authoritative one.
type fakeIngestServer struct {
	mu    sync.Mutex
	acked int
	posts int
}

func (f *fakeIngestServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/updates", func(w http.ResponseWriter, r *http.Request) {
		ups, err := DecodeUpdates(mustReadAll(r))
		if err != nil {
			http.Error(w, `{"error":"bad encoding"}`, http.StatusBadRequest)
			return
		}
		at := -1
		fmt.Sscanf(r.URL.Query().Get("at"), "%d", &at)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.posts++
		if at != f.acked {
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{"error": "position conflict", "acked": f.acked})
			return
		}
		f.acked += len(ups)
		json.NewEncoder(w).Encode(map[string]any{"acked": f.acked})
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/position", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"acked": f.acked})
	})
	return mux
}

func mustReadAll(r *http.Request) []byte {
	data := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			return data
		}
	}
}

// TestClientIngestStream409Resync pins the exactly-once resync: the
// server's durable position starts ahead of the client's idea (as after a
// failover landed on a replica that already has a prefix), the first batch
// 409s, and the client re-feeds from the authoritative position — no
// update applied twice, no update skipped.
func TestClientIngestStream409Resync(t *testing.T) {
	fake := &fakeIngestServer{acked: 120} // replica already holds [0,120)
	hs := httptest.NewServer(fake.handler())
	defer hs.Close()

	ups := make([]stream.Update, 300)
	for i := range ups {
		ups[i] = stream.Update{U: i % 7, V: i%7 + 1, Delta: 1}
	}
	rec := &traceRec{}
	c := &Client{Base: hs.URL, HC: hs.Client(), JitterSeed: 7}
	rec.instrument(c)

	pos, _, err := c.IngestStream("acme", ups, 100)
	if err != nil {
		t.Fatalf("ingest stream: %v", err)
	}
	if pos != len(ups) {
		t.Fatalf("final position %d, want %d", pos, len(ups))
	}
	if fake.acked != len(ups) {
		t.Fatalf("server acked %d, want %d (exactly-once violated)", fake.acked, len(ups))
	}
	// One 409 (at=0 vs acked=120), then 120->220, 220->300: 3 posts total.
	if fake.posts != 3 {
		t.Fatalf("server saw %d posts, want 3 (1 conflict + 2 accepted)", fake.posts)
	}
}

// TestClientIngestStreamFailoverMidStream: the primary dies partway
// through the stream; the client rotates to the follower, re-reads its
// position, and finishes the stream exactly-once on the survivor.
func TestClientIngestStreamFailoverMidStream(t *testing.T) {
	primary := &fakeIngestServer{}
	follower := &fakeIngestServer{}
	var killAfter = 2 // primary serves 2 posts then hangs up
	var pmu sync.Mutex
	ph := primary.handler()
	ps := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pmu.Lock()
		dead := killAfter <= 0
		if r.Method == http.MethodPost {
			killAfter--
		}
		pmu.Unlock()
		if dead {
			// Simulate a killed process: slam the connection.
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		ph.ServeHTTP(w, r)
	}))
	defer ps.Close()
	fs := httptest.NewServer(follower.handler())
	defer fs.Close()

	ups := make([]stream.Update, 500)
	for i := range ups {
		ups[i] = stream.Update{U: i % 9, V: i%9 + 1, Delta: 1}
	}
	rec := &traceRec{}
	c := &Client{Endpoints: []string{ps.URL, fs.URL}, JitterSeed: 7}
	rec.instrument(c)
	// The follower replicated the primary's first durable batch out of
	// band (anti-entropy), as the real cluster would.
	follower.acked = 100

	pos, _, err := c.IngestStream("acme", ups, 100)
	if err != nil {
		t.Fatalf("ingest stream: %v", err)
	}
	if pos != len(ups) {
		t.Fatalf("final position %d, want %d", pos, len(ups))
	}
	if follower.acked != len(ups) {
		t.Fatalf("follower acked %d, want %d (stream must finish on survivor)", follower.acked, len(ups))
	}
	if c.Current() != fs.URL {
		t.Fatalf("Current() = %s, want follower %s after failover", c.Current(), fs.URL)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPayloadContentLength: a /payload response declares its length, so it
// is not chunked and the client can read it into one buffer.
func TestPayloadContentLength(t *testing.T) {
	s, c := newTestServer(t, testConfig(t))
	defer s.Drain(context.Background())
	if _, err := c.Ingest("acme", 0, bundleStream(5).Updates[:200]); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	sealed, _, _, _, err := s.PayloadBanks(context.Background(), "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HC.Get(c.Base + "/v1/tenants/acme/payload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(sealed)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, transfer encoding %v; want %d, none", resp.ContentLength, resp.TransferEncoding, len(sealed))
	}
	if !bytes.Equal(body, sealed) {
		t.Fatal("served body differs from the sealed payload")
	}
}

// lyingLength answers every request with body and the declared length.
type lyingLength struct {
	body     string
	declared int64
}

func (l lyingLength) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"X-Gsketch-Pos": {"7"}},
		Body:          io.NopCloser(strings.NewReader(l.body)),
		ContentLength: l.declared,
		Request:       req,
	}, nil
}

// TestClientLyingContentLength: a response declaring 1 TB but carrying a
// few bytes reads as those bytes, and the presize stays bounded.
func TestClientLyingContentLength(t *testing.T) {
	c := &Client{Base: "http://peer.invalid", HC: &http.Client{Transport: lyingLength{body: "sealed bytes", declared: 1 << 40}}}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	sealed, pos, _, err := c.PayloadAt("t")
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	if string(sealed) != "sealed bytes" || pos != 7 {
		t.Fatalf("got %q at %d, want the real body at 7", sealed, pos)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 2*maxPresize {
		t.Fatalf("reading a 12-byte body allocated %d bytes", grown)
	}
}

// TestReadBody: whatever length a body declares, readBody returns exactly
// its bytes.
func TestReadBody(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 513, 70000} {
		body := bytes.Repeat([]byte{0xa5}, size)
		for _, declared := range []int64{-1, 0, int64(size) / 2, int64(size), int64(size) + 9, maxPresize, 1 << 40, math.MaxInt64} {
			got, err := readBody(bytes.NewReader(body), declared)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("size %d declared %d: got %d bytes, err %v", size, declared, len(got), err)
			}
		}
	}
}
