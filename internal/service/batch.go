// Batched submission: POST /batch admits a whole sweep's worth of job
// specs in one request. Elements share defaults (tenant, machine,
// policy, ...), are admitted atomically against the queue bound —
// either every element that needs a queue slot fits, or nothing is
// admitted and the whole batch gets 429 — and each element individually
// takes the cheapest path available: persisted result, coalesce onto an
// in-flight identical job (including an earlier element of the same
// batch), or enqueue. The response carries one JobView per element in
// request order, so a client can ship an entire dsmbench sweep or
// advisor verification fan-out as one round trip.
package service

import "fmt"

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
	if el.Tenant == "" {
		el.Tenant = def.Tenant
	}
	if el.Sample == 0 {
		el.Sample = def.Sample
	}
	return el
}

// SubmitBatch admits a whole batch atomically. Every element is merged with
// the defaults and validated first (one bad element rejects the batch —
// nothing is admitted), then admit applies the queue bound to the batch as
// a whole. The returned jobs parallel req.Jobs; attached[i] reports that
// element i coalesced onto a job another submission (or earlier element)
// started.
func (s *Server) SubmitBatch(req *BatchRequest) (jobs []*Job, attached []bool, err error) {
	if len(req.Jobs) == 0 {
		return nil, nil, fmt.Errorf("service: empty batch")
	}
	specs := make([]jobSpec, len(req.Jobs))
	for i := range req.Jobs {
		r := merged(req.Defaults, req.Jobs[i])
		if specs[i], err = validate(&r); err != nil {
			return nil, nil, fmt.Errorf("service: batch element %d: %w", i, err)
		}
	}
	return s.admit(specs)
}
