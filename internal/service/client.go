package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"encoding/base64"
	"strings"

	"graphsketch/internal/hashing"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// Client is the hardened HTTP client for a set of replicated gsketch serve
// instances. Every request runs under a per-request deadline and a capped
// exponential backoff with seeded jitter; transport failures, 5xx
// responses, and deadline expiries rotate to the next endpoint (failover),
// 429 responses honor the server's Retry-After, and 409 position
// conflicts surface the authoritative position so the caller can re-sync.
// The zero value plus a Base URL behaves like the old minimal client,
// just with sane deadlines and retries.
//
// Reads served by a follower are as correct as the follower's last sync;
// the response's QueryMeta reports the serving replica's staleness, and
// FootprintResponse reports its replication lag — staleness is always
// observable, never silent.
type Client struct {
	// Base is the single-endpoint form, kept for compatibility. Ignored
	// when Endpoints is non-empty.
	Base string
	// Endpoints is the replica rotation, primary first by convention. The
	// client is sticky: it keeps using the endpoint that last worked and
	// rotates only on failover-class errors.
	Endpoints []string
	// HC is the underlying HTTP client (http.DefaultClient when nil). Its
	// own Timeout is left alone; per-request deadlines come from Timeout.
	HC *http.Client
	// Timeout is the per-request deadline (default 5s).
	Timeout time.Duration
	// Attempts caps the total tries per call across all endpoints
	// (default 4).
	Attempts int
	// BackoffBase and BackoffCap shape the exponential backoff between
	// retries: sleep = min(BackoffBase << attempt, BackoffCap), scaled by a
	// jitter factor in [0.5, 1.0] (defaults 25ms and 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterSeed seeds the deterministic jitter sequence (tests pin it; 0
	// means seed 1). Two clients with the same seed sleep identically.
	JitterSeed uint64
	// Sleep replaces time.Sleep between retries — tests stub it to record
	// backoff decisions instead of waiting them out.
	Sleep func(time.Duration)
	// Trace, when set, observes every individual HTTP attempt with the
	// endpoint it targets — the failover-ladder tests pin exact sequences
	// through it.
	Trace func(endpoint, method, path string)

	mu      sync.Mutex
	cur     int    // sticky index into endpoints()
	jitterN uint64 // jitter draw counter
}

// Option defaults, exported so tests and docs state them once.
const (
	DefaultTimeout     = 5 * time.Second
	DefaultAttempts    = 4
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
)

func (c *Client) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return http.DefaultClient
}

func (c *Client) endpoints() []string {
	if len(c.Endpoints) > 0 {
		return c.Endpoints
	}
	return []string{c.Base}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) attempts() int {
	if c.Attempts > 0 {
		return c.Attempts
	}
	return DefaultAttempts
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff returns the jittered, capped exponential delay for a retry
// attempt (0-based). Deterministic per JitterSeed: the i-th draw of a
// client's lifetime is a pure function of (seed, i).
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := c.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := base << uint(attempt)
	if d > cap || d <= 0 {
		d = cap
	}
	seed := c.JitterSeed
	if seed == 0 {
		seed = 1
	}
	c.mu.Lock()
	n := c.jitterN
	c.jitterN++
	c.mu.Unlock()
	// Jitter factor in [0.5, 1.0): decorrelates replicas retrying after a
	// shared failure without ever sleeping longer than the capped delay.
	h := hashing.Mix64(seed + n*0x9E3779B97F4A7C15)
	frac := 0.5 + float64(h>>11)/float64(1<<53)/2
	return time.Duration(float64(d) * frac)
}

// apiError carries the server's JSON error body plus the HTTP status and,
// for 409 position conflicts, the authoritative position to re-sync from.
type apiError struct {
	Status int
	Msg    string
	Acked  int
}

func (e *apiError) Error() string { return fmt.Sprintf("service: http %d: %s", e.Status, e.Msg) }

// ConflictPosition reports whether err is a 409 position conflict and, if
// so, the authoritative durable position the server answered with — the
// exactly-once re-feed point.
func ConflictPosition(err error) (int, bool) {
	var ae *apiError
	if errors.As(err, &ae) && ae.Status == http.StatusConflict {
		return ae.Acked, true
	}
	return 0, false
}

// retryClass buckets one attempt's outcome.
type retryClass int

const (
	classOK       retryClass = iota
	classFatal               // 4xx other than 429: retrying cannot help
	classThrottle            // 429: same endpoint, honor Retry-After
	classFailover            // transport error, 5xx, deadline: next endpoint
	classUnknown             // may have taken effect: a retry could apply it twice
)

// ErrOutcomeUnknown wraps the error of a non-idempotent call (Merge) whose
// request may or may not have taken effect: the response was lost, or the
// server failed after queueing it. Retrying could apply it twice.
var ErrOutcomeUnknown = errors.New("service: outcome unknown, the request may have taken effect")

// classify maps an attempt result onto the retry ladder.
func classify(status int, err error) retryClass {
	switch {
	case err != nil:
		// Connection refused, reset, EOF, deadline exceeded — everything the
		// transport can throw is a replica-local failure: rotate.
		return classFailover
	case status == http.StatusOK:
		return classOK
	case status == http.StatusTooManyRequests:
		return classThrottle
	case status >= 500:
		return classFailover
	default:
		return classFatal
	}
}

// classifyMerge is classify for Merge, which is not idempotent: only the
// answers showing Server.Merge refused it before queueing it, 429 and 503,
// are retried. A transport error, a lost reply, a 504 (killed or timed out
// with it queued) or a 500 (ErrTookEffect folds it) may have folded it.
func classifyMerge(status int, err error) retryClass {
	c := classify(status, err)
	if c == classFailover && status != http.StatusServiceUnavailable {
		return classUnknown
	}
	return c
}

// retryAfter parses a 429's Retry-After (seconds form), capped by the
// client's backoff cap so a hostile or confused server cannot park the
// client.
func (c *Client) retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	cap := c.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	if d > cap {
		d = cap
	}
	return d, true
}

// attempt performs one HTTP round trip against one endpoint under the
// per-request deadline, returning the status, body, and headers.
func (c *Client) attempt(endpoint, method, path string, body []byte) (int, []byte, http.Header, error) {
	if c.Trace != nil {
		c.Trace(endpoint, method, path)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, endpoint+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

// maxPresize caps the buffer readBody allocates on the strength of a
// Content-Length header: a longer body still reads in full, growing as it
// comes, but a lying header cannot make the client allocate more than this
// up front. A serve-default full payload is about 9.4 MB.
const maxPresize = 16 << 20

// readBody reads r to EOF into a buffer presized from the declared length
// (-1 when unknown), so a full payload lands in one allocation instead of
// io.ReadAll's doubling series. The MinRead spare lets the final read see
// EOF without growing the buffer.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	size := min(max(declared, 0), maxPresize)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// do runs the retry/failover ladder for one logical request. Each try runs
// against the sticky current endpoint; failover-class outcomes rotate to
// the next endpoint and back off, throttle-class outcomes honor
// Retry-After on the same endpoint, and fatal-class responses (including
// 409 conflicts) return immediately with the decoded server error.
func (c *Client) do(method, path string, body []byte, out any) error {
	_, err := c.ladder(method, path, body, out, classify)
	return err
}

// ladder is do with the outcome classifier as a parameter, exposing the
// success response's headers (the payload endpoint stamps position and
// epoch there).
func (c *Client) ladder(method, path string, body []byte, out any, class func(int, error) retryClass) (http.Header, error) {
	eps := c.endpoints()
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		c.mu.Lock()
		ep := eps[c.cur%len(eps)]
		c.mu.Unlock()
		status, data, hdr, err := c.attempt(ep, method, path, body)
		switch class(status, err) {
		case classOK:
			if out == nil {
				return hdr, nil
			}
			if raw, ok := out.(*[]byte); ok {
				*raw = data
				return hdr, nil
			}
			return hdr, json.Unmarshal(data, out)
		case classFatal:
			return nil, decodeAPIError(status, data)
		case classUnknown:
			if err == nil {
				err = decodeAPIError(status, data)
			}
			return nil, fmt.Errorf("%w: %s %s on %s: %w", ErrOutcomeUnknown, method, path, ep, err)
		case classThrottle:
			lastErr = decodeAPIError(status, data)
			if attempt == c.attempts()-1 {
				break // out of budget: do not sleep for nothing
			}
			if d, ok := c.retryAfter(hdr); ok {
				c.sleep(d)
			} else {
				c.sleep(c.backoff(attempt))
			}
		case classFailover:
			if err != nil {
				lastErr = fmt.Errorf("service: %s %s on %s: %w", method, path, ep, err)
			} else {
				lastErr = decodeAPIError(status, data)
			}
			c.mu.Lock()
			c.cur = (c.cur + 1) % len(eps)
			c.mu.Unlock()
			if attempt < c.attempts()-1 {
				c.sleep(c.backoff(attempt))
			}
		}
	}
	return nil, lastErr
}

// decodeAPIError turns a non-200 body into an *apiError, preserving the
// acked position a 409 conflict reports.
func decodeAPIError(status int, data []byte) error {
	var e struct {
		Error string `json:"error"`
		Acked int    `json:"acked"`
	}
	json.Unmarshal(data, &e)
	if e.Error == "" {
		e.Error = string(data)
	}
	return &apiError{Status: status, Msg: e.Error, Acked: e.Acked}
}

// Current returns the sticky endpoint the next request will try first.
func (c *Client) Current() string {
	eps := c.endpoints()
	c.mu.Lock()
	defer c.mu.Unlock()
	return eps[c.cur%len(eps)]
}

// Ingest sends one batch; at >= 0 asserts the current durable position.
// Returns the acknowledged durable position.
func (c *Client) Ingest(tenant string, at int, ups []stream.Update) (int, error) {
	path := fmt.Sprintf("/v1/tenants/%s/updates", tenant)
	if at >= 0 {
		path += fmt.Sprintf("?at=%d", at)
	}
	var resp IngestResponse
	if err := c.do(http.MethodPost, path, EncodeUpdates(ups), &resp); err != nil {
		return 0, err
	}
	return resp.Acked, nil
}

// IngestStream drives a whole update stream through the position-addressed
// ingest protocol with failover, exactly-once: every batch asserts the
// stream position it starts at, a 409 conflict re-syncs to the server's
// authoritative position (the batch raced a duplicate or a failover
// landed on a replica at a different position), and a failover-class
// failure re-reads the new replica's position before re-feeding — the
// server's position handshake deduplicates whatever the retries repeated.
// Returns the final acknowledged position (== len(ups) on success) and
// the total encoded bytes actually sent (the re-feed cost).
func (c *Client) IngestStream(tenant string, ups []stream.Update, batch int) (int, int64, error) {
	if batch <= 0 {
		batch = 256
	}
	var sent int64
	pos := 0
	// Conflicts and failovers both re-position; only genuinely unresolvable
	// errors (fatal class or exhausted attempts with no position to be had)
	// escape. resyncs bounds livelock: a position that never advances across
	// len(ups) consecutive resyncs means the cluster is rejecting us.
	resyncs := 0
	for pos < len(ups) {
		end := min(pos+batch, len(ups))
		enc := EncodeUpdates(ups[pos:end])
		acked, err := c.Ingest(tenant, pos, ups[pos:end])
		sent += int64(len(enc))
		switch {
		case err == nil:
			pos = acked
			resyncs = 0
		default:
			if at, ok := ConflictPosition(err); ok {
				pos = at
				resyncs++
			} else {
				// Failover path: the ladder already rotated endpoints; ask the
				// current replica where its durable state ends and re-feed
				// from there.
				at, perr := c.Position(tenant)
				var ae *apiError
				if errors.As(perr, &ae) && ae.Status == http.StatusNotFound {
					// No batch has created the tenant yet: nothing is durable.
					at, perr = 0, nil
				}
				if perr != nil {
					return pos, sent, fmt.Errorf("ingest failed and position re-sync failed: %w (ingest: %v)", perr, err)
				}
				pos = at
				resyncs++
			}
			if resyncs > len(ups)+c.attempts() {
				return pos, sent, fmt.Errorf("service: ingest livelock at position %d: %w", pos, err)
			}
		}
	}
	return pos, sent, nil
}

// Position reports the tenant's durable position — the re-feed point.
func (c *Client) Position(tenant string) (int, error) {
	pi, err := c.PositionEx(tenant)
	return pi.Acked, err
}

// PositionInfo is the extended position probe: durable position, epoch,
// the epoch's digest-tree root and full manifest (when the server
// advertises one), and whether the tenant is fenced by a scrub failure.
type PositionInfo struct {
	Acked       int
	Epoch       uint64
	Root        uint64
	Quarantined bool
	Manifest    wire.Manifest
	HasManifest bool
}

// PositionEx fetches the full position row the delta syncer diffs against:
// manifest-first anti-entropy compares digest trees before moving any
// bank bytes.
func (c *Client) PositionEx(tenant string) (PositionInfo, error) {
	var resp PositionResponse
	if err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/position", tenant), nil, &resp); err != nil {
		return PositionInfo{}, err
	}
	pi := PositionInfo{Acked: resp.Acked, Epoch: resp.Epoch, Quarantined: resp.Quarantined}
	if resp.Root != "" {
		pi.Root, _ = strconv.ParseUint(resp.Root, 16, 64)
	}
	if resp.Manifest != "" {
		if raw, err := base64.StdEncoding.DecodeString(resp.Manifest); err == nil {
			if man, rest, derr := wire.DecodeManifest(raw); derr == nil && len(rest) == 0 {
				pi.Manifest = man
				pi.HasManifest = true
			}
		}
	}
	return pi, nil
}

// Payload fetches the tenant's sealed compact bundle payload.
func (c *Client) Payload(tenant string) ([]byte, error) {
	sealed, _, _, err := c.PayloadAt(tenant)
	return sealed, err
}

// PayloadAt fetches the tenant's sealed compact payload together with the
// exact stream position and epoch it was captured at (the anti-entropy
// pull: the position is the dedup key, the epoch is the staleness stamp).
func (c *Client) PayloadAt(tenant string) (sealed []byte, pos int, epoch uint64, err error) {
	sealed, pos, epoch, _, err = c.PayloadBanksAt(tenant, nil)
	return sealed, pos, epoch, err
}

// PayloadBanksAt fetches a bank-granular payload: nil banks means the
// full payload, a (possibly empty) slice pulls only those bank ids — the
// delta anti-entropy transfer. Every form carries the full GSD2 manifest,
// and the response's advertised root rides back for end-to-end
// verification of the install.
func (c *Client) PayloadBanksAt(tenant string, banks []int) (sealed []byte, pos int, epoch uint64, root uint64, err error) {
	path := fmt.Sprintf("/v1/tenants/%s/payload", tenant)
	if banks != nil {
		ids := make([]string, len(banks))
		for i, b := range banks {
			ids[i] = strconv.Itoa(b)
		}
		path += "?banks=" + strings.Join(ids, ",")
	}
	return c.stamped(path)
}

// LogAt pulls the tenant's log suffix since position from: the sealed batch
// and the position, epoch and manifest root the peer's state had at its end.
// A peer with no exact suffix answers 410, returned as the server's error.
func (c *Client) LogAt(tenant string, from int) (sealed []byte, pos int, epoch uint64, root uint64, err error) {
	return c.stamped(fmt.Sprintf("/v1/tenants/%s/log?from=%d", tenant, from))
}

// stamped GETs a sealed body and the X-Gsketch-* stamps that describe it.
func (c *Client) stamped(path string) (sealed []byte, pos int, epoch uint64, root uint64, err error) {
	var raw []byte
	hdr, err := c.ladder(http.MethodGet, path, nil, &raw, classify)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	pos, err = strconv.Atoi(hdr.Get("X-Gsketch-Pos"))
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("service: %s missing position stamp: %w", path, err)
	}
	epoch, _ = strconv.ParseUint(hdr.Get("X-Gsketch-Epoch"), 10, 64)
	root, _ = strconv.ParseUint(hdr.Get("X-Gsketch-Root"), 16, 64)
	return raw, pos, epoch, root, nil
}

// Sync posts a sealed payload as the tenant's complete state at the
// primary's position pos and epoch (the anti-entropy push form; the server
// dedupes by position, so re-sends are idempotent). Returns the tenant's
// durable position after the install.
func (c *Client) Sync(tenant string, pos int, epoch uint64, sealed []byte) (int, error) {
	var resp IngestResponse
	path := fmt.Sprintf("/v1/tenants/%s/sync?pos=%d&epoch=%d", tenant, pos, epoch)
	if err := c.do(http.MethodPost, path, sealed, &resp); err != nil {
		return 0, err
	}
	return resp.Acked, nil
}

// Merge posts a sealed bundle payload into the tenant. Each application
// folds it again, so it is re-sent only after a refusal (classifyMerge);
// a failure after which it may have been applied wraps ErrOutcomeUnknown.
func (c *Client) Merge(tenant string, sealed []byte) (int, error) {
	var resp IngestResponse
	if _, err := c.ladder(http.MethodPost, fmt.Sprintf("/v1/tenants/%s/merge", tenant), sealed, &resp, classifyMerge); err != nil {
		return 0, err
	}
	return resp.Acked, nil
}

// Flush forces a WAL snapshot.
func (c *Client) Flush(tenant string) (int, error) {
	var resp IngestResponse
	if err := c.do(http.MethodPost, fmt.Sprintf("/v1/tenants/%s/flush", tenant), nil, &resp); err != nil {
		return 0, err
	}
	return resp.Acked, nil
}

// MinCut runs the mincut query.
func (c *Client) MinCut(tenant string) (MinCutResponse, error) {
	var resp MinCutResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/query/mincut", tenant), nil, &resp)
	return resp, err
}

// Sparsify runs the sparsify query.
func (c *Client) Sparsify(tenant string) (SparsifyResponse, error) {
	var resp SparsifyResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/query/sparsify", tenant), nil, &resp)
	return resp, err
}

// Spanner runs the spanner query.
func (c *Client) Spanner(tenant string) (SpannerResponse, error) {
	var resp SpannerResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/query/spanner", tenant), nil, &resp)
	return resp, err
}

// SpannerEdge asks whether edge (u,v) is in the tenant's sparse spanner
// certificate, served from the epoch snapshot.
func (c *Client) SpannerEdge(tenant string, u, v int) (SpannerEdgeResponse, error) {
	var resp SpannerEdgeResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/query/spanner-edge?u=%d&v=%d", tenant, u, v), nil, &resp)
	return resp, err
}

// Footprint runs the footprint query.
func (c *Client) Footprint(tenant string) (FootprintResponse, error) {
	var resp FootprintResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/query/footprint", tenant), nil, &resp)
	return resp, err
}

// Healthz probes liveness.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Readyz probes readiness: an error (503) means the server is still
// recovering tenant WALs or is draining.
func (c *Client) Readyz() error {
	return c.do(http.MethodGet, "/readyz", nil, nil)
}

// Metrics fetches the counter block.
func (c *Client) Metrics() (MetricsResponse, error) {
	var resp MetricsResponse
	err := c.do(http.MethodGet, "/metricz", nil, &resp)
	return resp, err
}
