package wire

import (
	"encoding/binary"
	"hash/crc64"
)

// Digest manifest (GSD2): the canonical digest tree carried by payloads,
// snapshots, and /position responses so replicas can compare state at bank
// granularity without shipping the banks themselves.
//
// A bundle's wire state decomposes into an ordered list of banks (sketch
// levels, log chunks — the producer defines the split; the manifest only
// requires it be canonical and stable). Each leaf is one bank's 64-bit
// digest. The producer defines it too; the service's leaves are LINEAR in
// the bank's state (a sum over its cells of the cell values times
// seed-derived multipliers, folded to 64 bits), so the writer keeps them
// current from its own writes instead of re-encoding the banks. The root
// is the CRC64 of the concatenated leaves: a flat two-level Merkle tree —
// deep trees buy nothing at ~30 banks, while the flat root still commits to
// every leaf and to the bank count and order.
//
// Layout (little-endian):
//
//	magic   [4]byte  "GSD2"
//	version byte     2
//	count   uvarint  number of banks
//	leaf    count ×  digest u64
//	root    u64
//
// GSD1, whose leaves were a (length, CRC64) pair over each bank's bytes, is
// no longer accepted. The linear leaves give up part of CRC64's error
// detection: CRC64 catches every 2-bit error and every burst of up to 64
// bits, while a leaf linear over Z/2^64 with odd multipliers catches every
// single-word change but misses two flips of the same high bit that land
// in two count words of one bank (two flips of bit 63 always cancel). The
// trade is pinned by sketchcore's TestDigestLinearBlindSpot and spelled
// out in DESIGN.md. Neither CRC64 nor the linear leaves resist an
// adversary; the threat model is bit-rot and software bugs, not forgery —
// transport authenticity is out of scope (same stance as the GSE1 CRC32C
// envelope).

// manifestMagic brands digest manifests so foreign bytes fail fast.
var manifestMagic = [4]byte{'G', 'S', 'D', '2'}

// ManifestVersion is the current digest-manifest layout version.
const ManifestVersion byte = 2

// maxManifestBanks bounds the bank count any decode will materialize. Real
// bundles have tens of banks (sketch levels + log chunks); a corrupt count
// must not drive a giant allocation before the length check would catch it.
const maxManifestBanks = 1 << 16

// rootTable is the ECMA polynomial table the root fold uses.
var rootTable = crc64.MakeTable(crc64.ECMA)

// Manifest is a bundle's digest tree: one leaf digest per bank, in bank
// order.
type Manifest struct {
	Banks []uint64
}

// Root folds the leaves into the manifest's root digest. The fold runs over
// each leaf's fixed-width record, so the root commits to the bank count,
// order, and digests — any single-bank divergence changes the root.
func (m Manifest) Root() uint64 {
	var rec [8]byte
	h := crc64.New(rootTable)
	for _, b := range m.Banks {
		binary.LittleEndian.PutUint64(rec[:], b)
		h.Write(rec[:])
	}
	return h.Sum64()
}

// Equal reports whether two manifests describe bit-identical state.
func (m Manifest) Equal(o Manifest) bool {
	if len(m.Banks) != len(o.Banks) {
		return false
	}
	for i, b := range m.Banks {
		if b != o.Banks[i] {
			return false
		}
	}
	return true
}

// Diff returns the indices of banks that differ between the local manifest
// m and the remote manifest o (missing on either side counts as differing).
// The indices are relative to o — the banks a replica holding m must pull
// to converge on o.
func (m Manifest) Diff(o Manifest) []int {
	var ids []int
	for i, b := range o.Banks {
		if i >= len(m.Banks) || m.Banks[i] != b {
			ids = append(ids, i)
		}
	}
	// Extra local banks (len(m) > len(o)) have no remote index to pull; the
	// count mismatch already fails the root check, forcing a full install.
	return ids
}

// AppendManifest appends m's GSD2 encoding to buf.
func AppendManifest(buf []byte, m Manifest) []byte {
	buf = append(buf, manifestMagic[:]...)
	buf = append(buf, ManifestVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Banks)))
	for _, b := range m.Banks {
		buf = binary.LittleEndian.AppendUint64(buf, b)
	}
	return binary.LittleEndian.AppendUint64(buf, m.Root())
}

// EncodeManifest returns m's GSD2 encoding.
func EncodeManifest(m Manifest) []byte {
	return AppendManifest(make([]byte, 0, 24+8*len(m.Banks)), m)
}

// DecodeManifest decodes one GSD2 manifest off the front of data and
// returns it plus the remaining bytes. Truncation, unknown magic/version,
// an absurd bank count, a count the remaining bytes cannot possibly hold,
// or a stored root that does not match the recomputed leaf fold all return
// ErrBadEncoding — the root check means a manifest that decodes at all is
// internally consistent.
func DecodeManifest(data []byte) (Manifest, []byte, error) {
	if len(data) < 5 || [4]byte(data[:4]) != manifestMagic || data[4] != ManifestVersion {
		return Manifest{}, nil, ErrBadEncoding
	}
	rest := data[5:]
	count, rest, err := Uvarint(rest)
	if err != nil {
		return Manifest{}, nil, err
	}
	// Each leaf is 8 bytes, so the remaining length bounds the count before
	// any allocation.
	if count > maxManifestBanks || count > uint64(len(rest))/8 {
		return Manifest{}, nil, ErrBadEncoding
	}
	m := Manifest{Banks: make([]uint64, count)}
	for i := range m.Banks {
		m.Banks[i] = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	}
	if len(rest) < 8 {
		return Manifest{}, nil, ErrBadEncoding
	}
	root := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if root != m.Root() {
		return Manifest{}, nil, ErrBadEncoding
	}
	return m, rest, nil
}
