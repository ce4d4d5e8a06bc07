package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"decentmon"
	"decentmon/internal/dist"
)

// The traced run reaches every layer: the workload's own sessions cover
// some, and these probes cover the rest on the workload's own inputs.

const compileReps = 5

// probeCompile times Compile of the workload's property and keeps the spec
// for the in-process probes.
func (r *runner) probeCompile() error {
	for i := 0; i < compileReps; i++ {
		a := time.Now()
		spec, err := decentmon.Compile(r.w.formula, r.w.props)
		r.tr.record(spanAutomatonCompile, 0, a, time.Now())
		if err != nil {
			return err
		}
		r.spec = spec
	}
	return nil
}

// codecOps is the number of records each codec probe loop handles.
const codecOps = 100_000

// probeCodec times the wire codecs dlmond runs per ingested event over the
// workload's events: the ".dmtb" event record, and the RPC Ingest frame
// that carries it. One span covers one pass over a trace.
func (r *runner) probeCodec() (ops int64, err error) {
	var rec, frame []byte
	for ops < codecOps {
		for _, it := range r.fx.pool {
			events, err := it.eventList()
			if err != nil {
				return 0, err
			}
			a := time.Now()
			var recs []byte
			var ends []int
			for _, e := range events {
				if recs, err = dist.AppendEventRecord(recs, e); err != nil {
					return 0, err
				}
				ends = append(ends, len(recs))
			}
			r.tr.record(spanDistEncode, 0, a, time.Now())

			a = time.Now()
			start := 0
			for i, end := range ends {
				e, err := dist.DecodeEventRecord(recs[start:end], it.n)
				if err != nil {
					return 0, err
				}
				if e.SN != events[i].SN || e.Proc != events[i].Proc {
					return 0, fmt.Errorf("record %d decoded as P%d#%d", i, e.Proc, e.SN)
				}
				start = end
			}
			r.tr.record(spanDistDecode, 0, a, time.Now())

			a = time.Now()
			start = 0
			for _, end := range ends {
				rec = recs[start:end]
				start = end
				if frame, err = dist.AppendRPC(frame[:0], &dist.RPCMsg{Kind: dist.RPCIngest, SID: 1, Raw: rec}); err != nil {
					return 0, err
				}
				_, w := binary.Uvarint(frame)
				m, err := dist.DecodeRPC(frame[w:])
				if err != nil {
					return 0, err
				}
				if len(m.Raw) != len(rec) {
					return 0, fmt.Errorf("rpc frame carried %d of %d record bytes", len(m.Raw), len(rec))
				}
			}
			r.tr.record(spanDistRPC, 0, a, time.Now())
			ops += int64(len(events))
		}
	}
	return ops, nil
}

// snapshotCadence is the in-process snapshot interval, dlmond's default
// checkpoint cadence. Traces shorter than two intervals are snapshotted at
// their midpoint so every workload yields samples.
const snapshotCadence = 256

// probeSnapshot replays the pool in-process, snapshotting every
// snapshotCadence events, for at least d and one session.
func (r *runner) probeSnapshot(d time.Duration) *stats {
	r.snapEvery = min(snapshotCadence, r.fx.pool[0].len()/2)
	r.shards1 = r.w.daemon
	defer func() { r.snapEvery, r.shards1 = 0, false }()
	return r.phase(d, 1, r.local)
}

// probeCore replays a daemon workload's pool in-process with the engine
// configured as dlmond configures it, for the core and transport numbers a
// client of the daemon cannot see.
func (r *runner) probeCore(d time.Duration) *stats {
	r.shards1 = true
	defer func() { r.shards1 = false }()
	return r.phase(d, 1, r.local)
}

// probeServer runs an in-process workload's pool through a fresh dlmond
// over one connection, for at least d and one session.
func (r *runner) probeServer(d time.Duration) (*stats, serverCounters, error) {
	if err := r.startDaemon(false, 1); err != nil {
		return nil, serverCounters{}, err
	}
	defer r.teardown()
	before, err := r.scrape()
	if err != nil {
		return nil, serverCounters{}, err
	}
	st := r.phase(d, 1, r.daemon)
	after, err := r.scrape()
	return st, after.sub(before), err
}

// serverCounters are the dlmond counters read from /metrics.
type serverCounters struct{ checkpoints, verdicts int64 }

func (a serverCounters) sub(b serverCounters) serverCounters {
	return serverCounters{a.checkpoints - b.checkpoints, a.verdicts - b.verdicts}
}

func (a serverCounters) add(b serverCounters) serverCounters {
	return serverCounters{a.checkpoints + b.checkpoints, a.verdicts + b.verdicts}
}

// scrape reads the daemon's Prometheus text endpoint.
func (r *runner) scrape() (serverCounters, error) {
	resp, err := http.Get("http://" + r.srv.MetricsAddr() + "/metrics")
	if err != nil {
		return serverCounters{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverCounters{}, err
	}
	var c serverCounters
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		var dst *int64
		switch name {
		case "dlmond_checkpoints_total":
			dst = &c.checkpoints
		case "dlmond_verdicts_total":
			dst = &c.verdicts
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(val, 10, 64); err != nil {
			return serverCounters{}, fmt.Errorf("metrics line %q: %w", line, err)
		}
	}
	return c, nil
}
