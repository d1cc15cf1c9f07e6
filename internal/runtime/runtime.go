// Package runtime is the write-ahead log that makes a sketch durable:
// framed, checksummed update batches plus a sealed snapshot, on disk
// (DiskWAL), recovered into a sketch bit-identical to the lost one. By
// linearity, replay feeds the same updates through the same update path
// and a snapshot merges into a factory-fresh sketch (zero + state =
// state); the recovered position names exactly the prefix the sketch
// holds, so a client re-feeds from there with zero overlap. The service
// gives each tenant one DiskWAL; the distributed protocol runs on the
// service over HTTP (internal/faultnet drives it under faults).
package runtime

import (
	"graphsketch/internal/stream"
)

// Sketch is the slice of a sketch's surface the WAL needs: batched linear
// updates, a canonical compact serialization, and a wire-level merge.
// Every facade sketch type and service.Bundle satisfy it structurally.
type Sketch interface {
	UpdateBatch(ups []stream.Update)
	MarshalBinaryCompact() ([]byte, error)
	MergeBytes(data []byte) error
}

// Factory constructs a fresh zero sketch with fixed parameters and seed.
// Recovery merges a snapshot into a factory-fresh sketch, which by
// linearity is bit-identical to the sketch that produced it, so every
// sketch a WAL recovers must come from the factory that wrote it.
type Factory func() Sketch
