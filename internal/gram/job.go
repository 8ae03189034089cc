// Package gram implements the GT3 Grid Resource Allocation and
// Management system of the paper's §5.3 (Figure 4) — Master Managed Job
// Factory Service (MMJFS), Local Managed Job Factory Services (LMJFS),
// Managed Job Services (MJS), the Proxy Router, the Setuid Starter, the
// Grid Resource Identity Mapper (GRIM) and the grid-mapfile — plus the
// GT2 gatekeeper baseline for the least-privilege comparison (§5.2).
//
// The resource's operating system is simulated by internal/osim so that
// privilege use is observable: the only privileged code paths are the two
// setuid programs, exactly as the paper claims for GT3.
package gram

import (
	"fmt"
	"sync"

	"repro/internal/ogsa"
	"repro/internal/wire"
)

// JobState is the lifecycle state of a managed job.
type JobState uint8

const (
	// StateUnsubmitted: the MJS exists but the job has not started.
	StateUnsubmitted JobState = iota
	// StateStageIn: input staging.
	StateStageIn
	// StatePending: queued at the scheduler.
	StatePending
	// StateActive: running.
	StateActive
	// StateDone: finished successfully.
	StateDone
	// StateFailed: finished with an error.
	StateFailed
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case StateUnsubmitted:
		return "Unsubmitted"
	case StateStageIn:
		return "StageIn"
	case StatePending:
		return "Pending"
	case StateActive:
		return "Active"
	case StateDone:
		return "Done"
	case StateFailed:
		return "Failed"
	default:
		return fmt.Sprintf("JobState(%d)", uint8(s))
	}
}

// validTransitions is the job state machine.
var validTransitions = map[JobState][]JobState{
	StateUnsubmitted: {StateStageIn, StatePending, StateFailed},
	StateStageIn:     {StatePending, StateFailed},
	StatePending:     {StateActive, StateFailed},
	StateActive:      {StateDone, StateFailed},
}

// JobDescription is what a requestor submits: "the name of the
// executable, the working directory, where input and output should be
// stored, and the queue in which it should run" (§5.3).
type JobDescription struct {
	Executable string
	Args       []string
	Directory  string
	Stdout     string
	Queue      string
	// DelegateCredential asks the client to delegate a proxy to the MJS
	// for the job's own grid operations.
	DelegateCredential bool
}

// Encode serialises the description.
func (d JobDescription) Encode() []byte {
	e := wire.NewEncoder()
	e.Str(d.Executable)
	e.U32(uint32(len(d.Args)))
	for _, a := range d.Args {
		e.Str(a)
	}
	e.Str(d.Directory)
	e.Str(d.Stdout)
	e.Str(d.Queue)
	e.Bool(d.DelegateCredential)
	return e.Finish()
}

// DecodeJobDescription parses a description.
func DecodeJobDescription(b []byte) (JobDescription, error) {
	dec := wire.NewDecoder(b)
	var d JobDescription
	d.Executable = dec.Str()
	n := dec.Count("args", 1024)
	for i := 0; i < n; i++ {
		d.Args = append(d.Args, dec.Str())
	}
	d.Directory = dec.Str()
	d.Stdout = dec.Str()
	d.Queue = dec.Str()
	d.DelegateCredential = dec.Bool()
	if err := dec.Done(); err != nil {
		return JobDescription{}, err
	}
	if d.Executable == "" {
		return JobDescription{}, fmt.Errorf("gram: job description missing executable")
	}
	return d, nil
}

// Job tracks one computational task's lifecycle. State changes surface as
// the "jobState" service data element of its MJS, so clients can query or
// subscribe with standard Grid service mechanisms.
type Job struct {
	Description JobDescription
	Account     string

	mu    sync.Mutex
	state JobState
	sde   *ogsa.ServiceData
}

// NewJob creates a job in StateUnsubmitted bound to an SDE set.
func NewJob(desc JobDescription, account string, sde *ogsa.ServiceData) *Job {
	j := &Job{Description: desc, Account: account, state: StateUnsubmitted, sde: sde}
	j.publish()
	return j
}

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Transition moves the job to a new state, enforcing the state machine.
func (j *Job) Transition(to JobState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ok := range validTransitions[j.state] {
		if ok == to {
			j.state = to
			j.mu.Unlock()
			j.publish()
			j.mu.Lock()
			return nil
		}
	}
	return fmt.Errorf("gram: invalid job transition %s -> %s", j.state, to)
}

func (j *Job) publish() {
	if j.sde != nil {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		j.sde.Set("jobState", []byte(st.String()))
	}
}

// Terminal reports whether the job has finished.
func (j *Job) Terminal() bool {
	s := j.State()
	return s == StateDone || s == StateFailed
}
