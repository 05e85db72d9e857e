package main

// The benchmark's own span recorder. Spans are taken from outside the
// engine, around the calls the workloads make into it; they stay in memory
// during the pass and are written once, afterwards.

import (
	"bufio"
	"os"
	"strconv"
	"syscall"
)

// Span names. A root span (one per operation) is named after the
// operation's class; child spans are named after the call they wrap.
const (
	spCall uint8 = iota
	spGetAttr
	spSet
	spBackward
	spQuery
	spRetrieve
	spBatch
	spTxGetAttr
	spTxSet
	spClass // spClass+c is the root span of an operation of class c
)

var callNames = [spClass]string{
	"Call", "GetAttr", "Set", "Backward", "Query", "Retrieve", "Batch", "tx.GetAttr", "tx.Set",
}

type span struct {
	parent     int32
	op         uint32
	name       uint8
	start, end int64
}

// recorder collects spans. A nil *recorder records nothing, so the
// workloads call it unconditionally and the untraced phase pays one nil
// check per call. Like the sample log, the spans live outside the Go heap,
// so that tracing does not change how often the collector runs.
type recorder struct {
	mem   []byte
	spans []span
	cur   int32 // innermost open span, -1 outside any
	op    uint32
}

// newRecorder makes room for n spans (32 B each).
func newRecorder(n int) (*recorder, error) {
	mem, spans, err := mapOffHeap[span](n)
	if err != nil {
		return nil, err
	}
	return &recorder{mem: mem, spans: spans[:0], cur: -1}, nil
}

func (r *recorder) close() { syscall.Munmap(r.mem) }

func (r *recorder) begin(name uint8) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: r.cur, op: r.op, name: name, start: now()})
	r.cur = id
	return id
}

func (r *recorder) beginOp(class uint8) int32 {
	if r == nil {
		return -1
	}
	r.op++
	return r.begin(spClass + class)
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = now()
	r.cur = r.spans[id].parent
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

func spanName(name uint8, classes []string) string {
	if name >= spClass {
		return "op:" + classes[name-spClass]
	}
	return callNames[name]
}

// writeTrace writes one JSON object per span:
// {"id","parent","op_id","name","start_ns","end_ns"}; parent is -1 on a root.
func writeTrace(path string, spans []span, classes []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"op_id":`...)
		b = strconv.AppendUint(b, uint64(s.op), 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, spanName(s.name, classes))
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
