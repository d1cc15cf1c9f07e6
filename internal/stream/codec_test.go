package stream

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"graphsketch/internal/wire"
)

func TestCodecRoundTrip(t *testing.T) {
	orig := GNP(20, 0.3, 1)
	orig.Updates = append(orig.Updates, Update{U: 0, V: 1, Delta: -1}, Update{U: 2, V: 3, Delta: 5})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != orig.N || back.Len() != orig.Len() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.N, back.Len(), orig.N, orig.Len())
	}
	for i, up := range orig.Updates {
		if back.Updates[i] != up {
			t.Fatalf("update %d changed: %v vs %v", i, back.Updates[i], up)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nn 3\n0 1\n# another\n1 2 -1\n"
	st, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.Len() != 2 || st.Updates[1].Delta != -1 {
		t.Fatalf("parsed wrong: %+v", st)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0 1\n",          // update before header
		"n 0\n",          // bad vertex count
		"n 3\nn 4\n",     // duplicate header
		"n 3\n0 5\n",     // vertex out of range
		"n 3\n0\n",       // malformed update
		"n 3\n0 1 2 3\n", // too many fields
		"n x\n",          // unparseable header
		"",               // empty input
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestWriteOmitsUnitDelta(t *testing.T) {
	st := &Stream{N: 2, Updates: []Update{{U: 0, V: 1, Delta: 1}}}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[1], " 1 1") {
		t.Fatalf("unit delta should be omitted: %q", buf.String())
	}
}

// TestBatchCodec pins the binary batch form (three callers frame it: the
// ingest envelope, WAL records, spanner-log banks): exact bytes for a small
// batch, round trip with trailing bytes handed back, and every truncation and
// an over-declared count refused with wire.ErrBadEncoding.
func TestBatchCodec(t *testing.T) {
	ups := []Update{{U: 0, V: 1, Delta: 1}, {U: 300, V: 2, Delta: -1}, {U: 5, V: 4, Delta: 70}}
	enc := AppendBatch([]byte{0xAA}, ups)
	want := []byte{0xAA, 3, 0, 1, 2, 0xAC, 0x02, 2, 1, 5, 4, 0x8C, 0x01}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding = %x, want %x", enc, want)
	}
	got, rest, err := DecodeBatch(append(enc[1:], 0xBB, 0xCC))
	if err != nil || !slices.Equal(got, ups) || !bytes.Equal(rest, []byte{0xBB, 0xCC}) {
		t.Fatalf("decode = %v rest %x err %v", got, rest, err)
	}
	if got, rest, err := DecodeBatch([]byte{0}); err != nil || len(got) != 0 || len(rest) != 0 {
		t.Fatalf("empty batch = %v rest %x err %v", got, rest, err)
	}
	for cut := 0; cut < len(enc)-1; cut++ {
		if _, _, err := DecodeBatch(enc[1 : 1+cut]); !errors.Is(err, wire.ErrBadEncoding) {
			t.Fatalf("truncated to %d bytes: err = %v", cut, err)
		}
	}
	if _, _, err := DecodeBatch([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0}); !errors.Is(err, wire.ErrBadEncoding) {
		t.Fatalf("over-declared count: err = %v", err)
	}
}
