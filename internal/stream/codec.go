package stream

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"graphsketch/internal/wire"
)

// Text codec for dynamic graph streams, used by `gsketch run` so external
// tools can pipe update streams in.
//
// Format, one record per line:
//
//	n <vertices>        header (must come first)
//	<u> <v> [delta]     update; delta defaults to +1
//	# ...               comment, ignored
//
// Example:
//
//	n 4
//	0 1
//	1 2 1
//	0 1 -1

// WriteTo serializes the stream in the text format. Returns bytes written.
func (s *Stream) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "n %d\n", s.N)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, up := range s.Updates {
		if up.Delta == 1 {
			n, err = fmt.Fprintf(bw, "%d %d\n", up.U, up.V)
		} else {
			n, err = fmt.Fprintf(bw, "%d %d %d\n", up.U, up.V, up.Delta)
		}
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Read parses a stream from the text format.
func Read(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	st := &Stream{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if sawHeader {
				return nil, fmt.Errorf("stream: line %d: duplicate header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("stream: line %d: malformed header", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &st.N); err != nil || st.N <= 0 {
				return nil, fmt.Errorf("stream: line %d: bad vertex count %q", lineNo, fields[1])
			}
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("stream: line %d: update before 'n <vertices>' header", lineNo)
		}
		var up Update
		up.Delta = 1
		switch len(fields) {
		case 2:
			if _, err := fmt.Sscanf(line, "%d %d", &up.U, &up.V); err != nil {
				return nil, fmt.Errorf("stream: line %d: %v", lineNo, err)
			}
		case 3:
			if _, err := fmt.Sscanf(line, "%d %d %d", &up.U, &up.V, &up.Delta); err != nil {
				return nil, fmt.Errorf("stream: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("stream: line %d: want 'u v [delta]', got %q", lineNo, line)
		}
		if up.U < 0 || up.U >= st.N || up.V < 0 || up.V >= st.N {
			return nil, fmt.Errorf("stream: line %d: vertex out of range [0,%d)", lineNo, st.N)
		}
		st.Updates = append(st.Updates, up)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("stream: missing 'n <vertices>' header")
	}
	return st, nil
}

// Binary codec for one update batch — the form batches take on the ingest
// wire, in WAL records and in a bundle's spanner-log banks:
//
//	uvarint count, then count × (uvarint u, uvarint v, zigzag-uvarint delta)
//
// Callers frame it (envelope, record header, bank table) and own whatever
// may follow it.

// AppendBatch appends the binary encoding of ups to buf.
func AppendBatch(buf []byte, ups []Update) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ups)))
	for _, u := range ups {
		buf = wire.AppendUvarint(buf, uint64(u.U))
		buf = wire.AppendUvarint(buf, uint64(u.V))
		buf = wire.AppendUvarint(buf, wire.Zigzag(u.Delta))
	}
	return buf
}

// DecodeBatch reads one batch off the front of data and returns it with the
// bytes that follow. A declared count larger than the remaining bytes (every
// update takes at least three) is refused before anything is allocated; all
// errors wrap wire.ErrBadEncoding. Vertex range is the caller's to check.
func DecodeBatch(data []byte) ([]Update, []byte, error) {
	count, data, err := wire.Uvarint(data)
	if err != nil || count > uint64(len(data)) {
		return nil, nil, fmt.Errorf("stream: batch count: %w", wire.ErrBadEncoding)
	}
	ups := make([]Update, 0, count)
	for i := uint64(0); i < count; i++ {
		var f [3]uint64
		for j := range f {
			if f[j], data, err = wire.Uvarint(data); err != nil {
				return nil, nil, fmt.Errorf("stream: batch update %d: %w", i, err)
			}
		}
		ups = append(ups, Update{U: int(f[0]), V: int(f[1]), Delta: wire.Unzigzag(f[2])})
	}
	return ups, data, nil
}
