// External-sort telemetry: process-wide atomics fed by internal/extsort's
// spill paths, exposed as the partsort_extsort_* metric families on the
// default registry. Like the aux-bytes gauge these are process-wide
// rather than per-session — spill traffic is an operator-facing disk/IO
// concern that must stay visible between obs sessions. Updates are single
// atomic adds on block-granular paths (line flushes, bucket reads), never
// per tuple.

package obs

import "sync/atomic"

// extsort is the process-wide external-sort state behind the
// partsort_extsort_* families.
var extsort struct {
	spillBytes atomic.Int64 // bytes written to the spill files
	readBytes  atomic.Int64 // bytes read back from the spill files
	tempFiles  atomic.Int64 // spill temp files currently live
}

// AddExtSpillBytes records bytes written to spill files.
func AddExtSpillBytes(n int64) { extsort.spillBytes.Add(n) }

// AddExtReadBytes records bytes read back from spill files.
func AddExtReadBytes(n int64) { extsort.readBytes.Add(n) }

// AddExtTempFiles tracks live spill temp files (negative on removal).
func AddExtTempFiles(delta int64) { extsort.tempFiles.Add(delta) }

// registerExtsort registers the external-sort families on r; called from
// DefaultRegistry's one-time build.
func registerExtsort(r *Registry) {
	r.CounterFunc(metricPrefix+"extsort_spill_bytes_total",
		"Bytes written to external-sort spill files.",
		func() uint64 { return uint64(extsort.spillBytes.Load()) })
	r.CounterFunc(metricPrefix+"extsort_read_bytes_total",
		"Bytes read back from external-sort spill files.",
		func() uint64 { return uint64(extsort.readBytes.Load()) })
	r.GaugeFunc(metricPrefix+"extsort_temp_files",
		"External-sort spill temp files currently live.",
		func() float64 { return float64(extsort.tempFiles.Load()) })
}
