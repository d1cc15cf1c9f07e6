package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func sampleCells(n int) []struct {
	w, s int64
	f    uint64
} {
	cells := make([]struct {
		w, s int64
		f    uint64
	}, n)
	for i := range cells {
		if i%3 == 0 {
			continue // leave zero runs for the compact encoder
		}
		cells[i].w = int64(i) - 7
		cells[i].s = int64(i) * 1001
		cells[i].f = uint64(i) * 0x9e3779b97f4a7c15
	}
	return cells
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 300)}
	for _, p := range payloads {
		sealed := Seal(p)
		if len(sealed) != EnvelopeOverhead+len(p) {
			t.Fatalf("sealed size %d want %d", len(sealed), EnvelopeOverhead+len(p))
		}
		got, rest, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, p) || len(rest) != 0 {
			t.Fatalf("payload mismatch: got %x want %x (rest %d)", got, p, len(rest))
		}
	}
	// Two envelopes back to back: Open peels one at a time.
	sealed := AppendSealed(Seal([]byte("one")), []byte("two"))
	p1, rest, err := Open(sealed)
	if err != nil || string(p1) != "one" {
		t.Fatalf("first envelope: %q %v", p1, err)
	}
	p2, rest, err := Open(rest)
	if err != nil || string(p2) != "two" || len(rest) != 0 {
		t.Fatalf("second envelope: %q %v rest=%d", p2, err, len(rest))
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	sealed := Seal([]byte("the payload under test"))
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(sealed); n++ {
		if _, _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: want error", n)
		}
	}
	// Single bit flips anywhere in the envelope must error.
	for i := 0; i < len(sealed); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(sealed)
			mut[i] ^= 1 << bit
			if _, _, err := Open(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d: want error", i, bit)
			}
		}
	}
}

func TestDecodeRunsBounds(t *testing.T) {
	cells := sampleCells(64)
	buf := AppendRuns(nil, len(cells), func(i int) (int64, int64, uint64) {
		return cells[i].w, cells[i].s, cells[i].f
	})
	if _, err := DecodeRuns(buf, -1, nil); err == nil {
		t.Fatal("negative n: want error")
	}
	if _, err := DecodeRuns(buf, len(cells)+1, nil); err == nil {
		t.Fatal("wrong n: want error")
	}
	// A literal-run count far beyond what the remaining bytes can back
	// must be rejected before the decode loop runs.
	crafted := AppendUvarint(nil, 1<<20) // declared cell count
	crafted = AppendUvarint(crafted, 0)  // zero run of 0
	crafted = AppendUvarint(crafted, 1<<20)
	if _, err := DecodeRuns(crafted, 1<<20, func(i int, w, s int64, f uint64) {}); err == nil {
		t.Fatal("unbacked literal run: want error")
	}
	decoded := make([]struct {
		w, s int64
		f    uint64
	}, len(cells))
	rest, err := DecodeRuns(buf, len(cells), func(i int, w, s int64, f uint64) {
		decoded[i].w, decoded[i].s, decoded[i].f = w, s, f
	})
	if err != nil || len(rest) != 0 {
		t.Fatalf("compact round trip: err=%v rest=%d", err, len(rest))
	}
	for i := range cells {
		if decoded[i] != cells[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestCellBudget(t *testing.T) {
	prev := SetDecodeCellBudget(1000)
	defer SetDecodeCellBudget(prev)
	if err := CheckCellBudget(10, 10, 10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := CheckCellBudget(10, 101); err == nil {
		t.Fatal("over budget: want error")
	}
	if err := CheckCellBudget(0); err == nil {
		t.Fatal("zero dim: want error")
	}
	if err := CheckCellBudget(-4, 2); err == nil {
		t.Fatal("negative dim: want error")
	}
	// Products that overflow int64 must be rejected, not wrapped.
	if err := CheckCellBudget(1<<40, 1<<40); err == nil {
		t.Fatal("overflowing product: want error")
	}
}

// TestCellBudgetConcurrent pins that adjusting the budget while decoders
// consult it is race-clean (the budget is an atomic): the concurrent sketch
// service lowers it at runtime while query/ingest decodes run. Run under
// -race, any interleaving must observe one of the two configured values.
func TestCellBudgetConcurrent(t *testing.T) {
	prev := SetDecodeCellBudget(1 << 20)
	defer SetDecodeCellBudget(prev)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			SetDecodeCellBudget(int64(1<<20 + i))
		}
	}()
	for i := 0; i < 1000; i++ {
		if err := CheckCellBudget(1024, 1024); err != nil {
			t.Errorf("within both budgets, got %v", err)
			break
		}
		if err := CheckCellBudget(1<<30, 1<<30); err == nil {
			t.Error("over both budgets, got nil")
			break
		}
	}
	<-done
}

// TestDecodeCellsTag: the tag byte is a version check — a payload opened
// by AppendTag decodes, and any other leading byte (0x00 was the retired
// fixed-size format) is ErrBadEncoding before a cell is read.
func TestDecodeCellsTag(t *testing.T) {
	cells := sampleCells(8)
	payload := AppendRuns(AppendTag(nil), len(cells), func(i int) (int64, int64, uint64) {
		return cells[i].w, cells[i].s, cells[i].f
	})
	seen := 0
	rest, err := DecodeCells(append(payload, 7), len(cells), func(int, int64, int64, uint64) { seen++ })
	if err != nil || !bytes.Equal(rest, []byte{7}) || seen == 0 {
		t.Fatalf("own tag: rest=%x err=%v cells=%d", rest, err, seen)
	}
	for _, tag := range []byte{0x00, 0x02, 0xFF} {
		bad := append([]byte{tag}, payload[1:]...)
		if _, err := DecodeCells(bad, len(cells), func(int, int64, int64, uint64) { t.Fatal("cell read past a bad tag") }); err != ErrBadEncoding {
			t.Fatalf("tag %#x: %v, want ErrBadEncoding", tag, err)
		}
	}
	if _, err := DecodeCells(nil, 0, nil); err != ErrBadEncoding {
		t.Fatalf("empty payload: %v, want ErrBadEncoding", err)
	}
}

// FuzzOpen pins that envelope validation never panics and that valid
// envelopes round-trip.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(Seal(nil))
	f.Add(Seal([]byte("seed payload")))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, err := Open(data)
		if err == nil {
			resealed := Seal(payload)
			if re, _, err2 := Open(resealed); err2 != nil || !bytes.Equal(re, payload) {
				t.Fatalf("reseal round trip failed: %v", err2)
			}
		}
		// Sealing arbitrary bytes always opens cleanly.
		if got, _, err := Open(Seal(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Seal/Open identity failed: %v", err)
		}
	})
}

// FuzzDecodeRuns pins that the compact cell decoder never panics and never
// reports more cells than declared, whatever the input bytes.
func FuzzDecodeRuns(f *testing.F) {
	cells := sampleCells(32)
	f.Add(AppendRuns(nil, len(cells), func(i int) (int64, int64, uint64) {
		return cells[i].w, cells[i].s, cells[i].f
	}), 32)
	f.Add([]byte{0x00}, 0)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n > 1<<16 {
			n = 1 << 16
		}
		seen := 0
		_, err := DecodeRuns(data, n, func(i int, w, s int64, f uint64) {
			if i < 0 || i >= n {
				t.Fatalf("cell index %d out of [0,%d)", i, n)
			}
			seen++
		})
		if err == nil && seen > n {
			t.Fatalf("decoded %d cells, declared %d", seen, n)
		}
	})
}

// appendRunsFrozen is the encoder as it stood before AppendRuns moved onto
// RunsWriter (append-based varints, no reservation), kept as the format's
// reference bytes.
func appendRunsFrozen(buf []byte, n int, get func(i int) (w, s int64, f uint64)) []byte {
	zero := func(i int) bool {
		w, s, f := get(i)
		return w == 0 && s == 0 && f == 0
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; {
		z := i
		for z < n && zero(z) {
			z++
		}
		buf = binary.AppendUvarint(buf, uint64(z-i))
		if i = z; i == n {
			break
		}
		lit := i
		for lit < n && !zero(lit) {
			lit++
		}
		buf = binary.AppendUvarint(buf, uint64(lit-i))
		for ; i < lit; i++ {
			w, s, f := get(i)
			buf = binary.AppendUvarint(buf, Zigzag(w))
			buf = binary.AppendUvarint(buf, Zigzag(s))
			buf = binary.LittleEndian.AppendUint64(buf, f)
		}
	}
	return buf
}

// TestAppendRunsMatchesFrozen pins RunsWriter's bytes, including the widest
// cell (two 10-byte varints) its per-run reservation has to cover.
func TestAppendRunsMatchesFrozen(t *testing.T) {
	cells := sampleCells(200)
	cells[1].w, cells[1].s = math.MinInt64, math.MaxInt64
	cells[199].w, cells[199].s = math.MaxInt64, math.MinInt64
	get := func(i int) (int64, int64, uint64) { return cells[i].w, cells[i].s, cells[i].f }
	for _, n := range []int{0, 1, 2, 64, 199, 200} {
		want := appendRunsFrozen([]byte("p"), n, get)
		got := AppendRuns([]byte("p"), n, get)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendRuns differs from the frozen encoder", n)
		}
	}
}
