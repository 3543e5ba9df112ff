package wflog_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/wflog"
)

// BenchmarkWrite measures the log writer on a Class4-large run's log, in
// MB/s of JSON lines written.
func BenchmarkWrite(b *testing.B) {
	g := gen.NewGenerator(36)
	s := g.Workflow(gen.Class4(), "write-bench")
	_, events, err := g.Run(s, gen.Large(), "write-bench-r")
	if err != nil {
		b.Fatal(err)
	}
	var log bytes.Buffer
	if err := wflog.Write(&log, events); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(log.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wflog.Write(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}
