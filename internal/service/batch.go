// Batched submission: POST /batch admits a whole sweep's worth of job
// specs in one request. Elements share defaults (tenant, machine,
// engine, ...), are admitted atomically against the queue bound —
// either every element that needs a queue slot fits, or nothing is
// admitted and the whole batch gets 429 — and each element individually
// takes the cheapest path available: persisted result, coalesce onto an
// in-flight identical job (including an earlier element of the same
// batch), or enqueue. The response carries one JobView per element in
// request order, so a client can ship an entire dsmbench sweep or
// advisor verification fan-out as one round trip.
package service

import (
	"fmt"

	"dsmdist/internal/core"
)

// BatchRequest is the POST /batch body.
type BatchRequest struct {
	// Defaults supplies the value for any field an element leaves at its
	// zero value. Defaults.Sources is itself a default: an element with
	// no sources of its own inherits it.
	Defaults JobRequest `json:"defaults"`
	// Jobs are the batch elements (at least one).
	Jobs []JobRequest `json:"jobs"`
	// NoWait makes POST /batch return as soon as the batch is admitted
	// (cache-hit elements come back done, the rest queued/running)
	// instead of blocking until every element finishes.
	NoWait bool `json:"nowait,omitempty"`
}

// BatchView is the POST /batch response: one JobView per element, in
// request order.
type BatchView struct {
	V    int       `json:"v"`
	Jobs []JobView `json:"jobs"`
}

// merged resolves one batch element against the batch defaults: any field
// left at its zero value inherits the corresponding default.
func merged(def, el JobRequest) JobRequest {
	if el.Sources == nil {
		el.Sources = def.Sources
	}
	if el.Machine == "" {
		el.Machine = def.Machine
	}
	if el.Procs == 0 {
		el.Procs = def.Procs
	}
	if el.Policy == "" {
		el.Policy = def.Policy
	}
	if el.Opt == "" {
		el.Opt = def.Opt
	}
	if el.RuntimeChecks == nil {
		el.RuntimeChecks = def.RuntimeChecks
	}
	if el.Quantum == 0 {
		el.Quantum = def.Quantum
	}
	if el.Engine == "" {
		el.Engine = def.Engine
	}
	if el.Tenant == "" {
		el.Tenant = def.Tenant
	}
	if el.Sample == 0 {
		el.Sample = def.Sample
	}
	return el
}

// SubmitBatch admits a whole batch atomically. Every element is validated
// first (one bad element rejects the batch — nothing is admitted), then
// admission is all-or-nothing against the queue bound: the elements that
// genuinely need a queue slot — not a store hit, not coalescible onto an
// in-flight job or an earlier identical element of this batch — must all
// fit in the remaining space, or no job is created and ErrQueueFull comes
// back. The returned jobs parallel req.Jobs; attached[i] reports that
// element i coalesced onto a job another submission (or earlier element)
// started.
func (s *Server) SubmitBatch(req *BatchRequest) (jobs []*Job, attached []bool, err error) {
	if len(req.Jobs) == 0 {
		return nil, nil, fmt.Errorf("service: empty batch")
	}
	type element struct {
		spec   jobSpec
		key    string
		tenant string
		cached []byte // non-nil: persisted result document
	}
	els := make([]element, len(req.Jobs))
	for i := range req.Jobs {
		r := merged(req.Defaults, req.Jobs[i])
		spec, err := validate(&r)
		if err != nil {
			return nil, nil, fmt.Errorf("service: batch element %d: %w", i, err)
		}
		els[i].spec = spec
		els[i].key = core.JobKey(spec.JobSpec)
		els[i].tenant = orDefault(r.Tenant, "default")
	}
	// Store lookups outside the server mutex (the store has its own lock
	// and hits the disk for payloads); as with Submit, an identical job
	// finishing between this check and the admission below only costs a
	// coalesced wait, never a duplicate simulation.
	if s.opts.Store != nil {
		for i := range els {
			if data, ok := s.opts.Store.Get(KindResult, els[i].key); ok {
				els[i].cached = data
			}
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	// Count the queue slots this batch needs before creating anything, so
	// rejection leaves no trace (no job records, no inflight entries).
	need := 0
	dup := map[string]bool{}
	for i := range els {
		if els[i].cached != nil {
			continue
		}
		if _, ok := s.inflight[els[i].key]; ok {
			continue
		}
		if dup[els[i].key] {
			continue
		}
		dup[els[i].key] = true
		need++
	}
	if len(s.queue)+need > s.opts.MaxQueue {
		s.mu.Unlock()
		return nil, nil, ErrQueueFull
	}
	jobs = make([]*Job, len(els))
	attached = make([]bool, len(els))
	for i := range els {
		el := &els[i]
		if el.cached != nil {
			j := s.newJobLocked(el.key, el.tenant, el.spec)
			j.State = StateDone
			j.Cached = true
			j.Result = el.cached
			close(j.done)
			s.retireLocked(j)
			jobs[i] = j
			continue
		}
		// Earlier elements of this batch have already registered their
		// keys in inflight, so within-batch duplicates coalesce here too.
		if j := s.inflight[el.key]; j != nil {
			j.Coalesced++
			jobs[i], attached[i] = j, true
			continue
		}
		j := s.newJobLocked(el.key, el.tenant, el.spec)
		j.State = StateQueued
		s.inflight[el.key] = j
		s.queue = append(s.queue, j)
		jobs[i] = j
	}
	s.mu.Unlock()
	s.schedule()
	return jobs, attached, nil
}
