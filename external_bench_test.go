package partsort

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkExternalSort is the whole spill pipeline at forced-spill
// settings, formation and delivery of an input 16 segments deep, with its
// throughput and spill traffic rate (io-MB/s).
func BenchmarkExternalSort(b *testing.B) {
	const n = 1 << 20
	w := NewWorkspace()
	defer w.Close()
	opt := &SortOptions{
		TempDir:            b.TempDir(),
		SpillSegmentTuples: 1 << 16,
		SpillBucketBits:    2,
		Threads:            4,
		Workspace:          w,
	}
	base := gen.Uniform[uint64](n, 0, 42)
	baseV := RIDs[uint64](n)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	var ioBytes int64
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(keys, base)
		copy(vals, baseV)
		b.StartTimer()
		st, err := SortExternal(keys, vals, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Spilled {
			b.Fatalf("benchmark did not spill: %+v", st)
		}
		ioBytes += st.SpillBytes + st.ReadBytes
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec/1e6, "Mtuples/s")
		b.ReportMetric(float64(ioBytes)/(1<<20)/sec, "io-MB/s")
	}
}
