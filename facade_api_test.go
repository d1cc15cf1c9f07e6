package graphsketch

import (
	"reflect"
	"slices"
	"testing"
)

// TestFacadeMethodSets pins the exported method set of every public sketch
// type. The shared surface is promoted from embedded generic cores, so a
// method added to a core, or to an internal sketch a core exposes, lands in
// the public API of every type that embeds it; this list is where such a
// change has to be made on purpose.
func TestFacadeMethodSets(t *testing.T) {
	wire := []string{"Footprint", "Ingest", "IngestParallel", "MarshalBinaryCompact", "MergeBytes", "UnmarshalBinary", "Update", "UpdateBatch"}
	spanner := []string{"Build", "Footprint", "Ingest", "SetDecodeWorkers", "SetIngestWorkers", "Update", "UpdateBatch"}
	with := func(base []string, extra ...string) []string {
		out := append(slices.Clone(base), extra...)
		slices.Sort(out)
		return out
	}
	cases := []struct {
		typ  any
		want []string
	}{
		{(*ConnectivitySketch)(nil), with(wire, "Add", "Clone", "Components", "Connected", "MergeMany", "SpanningForest")},
		{(*BipartitenessSketch)(nil), []string{"Bipartite", "Footprint", "Ingest", "IngestParallel", "Update", "UpdateBatch"}},
		{(*MSTSketch)(nil), with(wire, "Add", "ApproxMSF", "MergeMany")},
		{(*MinCutSketch)(nil), with(wire, "Add", "Clone", "MergeMany", "MinCut", "SetDecodeWorkers")},
		{(*SimpleSparsifier)(nil), with(wire, "Add", "Clone", "MergeMany", "SetDecodeWorkers", "Sparsify")},
		{(*Sparsifier)(nil), with(wire, "Add", "MergeMany", "SetDecodeWorkers", "Sparsify")},
		{(*WeightedSparsifier)(nil), with(wire, "Add", "MergeMany", "SetDecodeWorkers", "Sparsify")},
		{(*SubgraphSketch)(nil), with(wire, "Add", "Count", "Gamma", "MergeMany", "NonEmpty")},
		{(*BaswanaSenSketch)(nil), spanner},
		{(*RecurseConnectSketch)(nil), spanner},
	}
	for _, c := range cases {
		ty := reflect.TypeOf(c.typ)
		var got []string
		for i := 0; i < ty.NumMethod(); i++ {
			got = append(got, ty.Method(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s methods:\n got %v\nwant %v", ty, got, c.want)
		}
		for i := 0; i < ty.Elem().NumField(); i++ {
			if f := ty.Elem().Field(i); f.IsExported() {
				t.Errorf("%s exports field %s", ty, f.Name)
			}
		}
	}
}
