package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
)

// Journal record types. The journal is a write-ahead log of the
// session's externally visible history: everything the service
// acknowledged to a client (an accepted answer, a sealed round) is on
// disk — fsynced — before the acknowledgement, so a kill -9 can lose at
// most work nobody was told succeeded.
//
//	created     the full CreateSessionRequest (dataset + config), the
//	            recipe recovery rebuilds the session from; always the
//	            journal's first record, preserved across compaction
//	roundOpen   a published round: id, sorted facts, panel worker IDs
//	answer      one accepted expert answer (the ack commit point)
//	roundSeal   the round completed (full panel or timeout) with its
//	            final answer count
//	checkpoint  the engine's per-round warm checkpoint plus the server
//	            round counter — the compaction target: every record
//	            before it is folded into it
//	taskAdmit   one streaming-admitted task fragment (the ack commit
//	            point of POST /tasks), with its admission sequence
//	            number; preserved across compaction because the dataset
//	            rebuild needs every fragment, folded or not
const (
	recCreated    byte = 1
	recRoundOpen  byte = 2
	recAnswer     byte = 3
	recRoundSeal  byte = 4
	recCheckpoint byte = 5
	recTaskAdmit  byte = 6
)

// roundOpenRec is recRoundOpen's payload. AdmitSeq is the highest
// admission sequence folded into the engine when the round was planned:
// recovery re-applies exactly the fragments up to it before re-planning
// the round, so the replayed selection sees the identical problem.
type roundOpenRec struct {
	Round    int      `json:"round"`
	Facts    []int    `json:"facts"`
	Panel    []string `json:"panel"`
	AdmitSeq int      `json:"admit_seq,omitempty"`
}

// taskAdmitRec is recTaskAdmit's payload: one admitted fragment under
// its session-assigned sequence number. Final marks the end of the
// admission stream (no further admits are valid); a Final record may
// carry no fragment — a pure stream close.
type taskAdmitRec struct {
	Seq      int               `json:"seq"`
	Final    bool              `json:"final,omitempty"`
	Fragment *dataset.Fragment `json:"fragment,omitempty"`
}

// answerRec is recAnswer's payload.
type answerRec struct {
	Round  int    `json:"round"`
	Worker string `json:"worker"`
	Values []bool `json:"values"`
}

// roundSealRec is recRoundSeal's payload.
type roundSealRec struct {
	Round   int `json:"round"`
	Answers int `json:"answers"`
}

// checkpointRec is recCheckpoint's payload: the pipeline checkpoint
// document plus the server's round counter, which compaction would
// otherwise lose (round IDs must stay monotonic across recoveries so a
// client never sees an ID reused for different facts). AdmitSeq is the
// highest admission sequence folded into the checkpointed state:
// recovery admits fragments up to it into the rebuilt dataset before
// resuming, and stages the rest for the engine to re-apply live.
type checkpointRec struct {
	NextRound  int             `json:"next_round"`
	AdmitSeq   int             `json:"admit_seq,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// sessionJournal is one session's write-ahead log plus its compaction
// policy and instruments. Its own mutex (not the session's) serializes
// file access: the answer path appends under Session.mu, while the
// engine's CommitRound appends from the pipeline goroutine.
type sessionJournal struct {
	mu  sync.Mutex
	w   *journal.Writer
	ins *journalInstruments

	// created is the recCreated payload, re-written as the first record
	// of every compacted log.
	created []byte
	// admits holds every taskAdmit payload in sequence order. Compaction
	// re-writes them all between the created record and the checkpoint:
	// the checkpoint's beliefs cover the admitted tasks, but only the
	// fragments themselves let recovery rebuild the grown dataset.
	admits [][]byte //hclint:guardedby mu
	// compactEvery folds the log into its latest checkpoint record after
	// this many checkpoint commits; 0 never compacts.
	compactEvery int
	sinceCompact int //hclint:guardedby mu
}

// newSessionJournal wraps w; admits seeds the retained admission
// payloads of a recovered journal (nil for a fresh one), so the next
// compaction preserves pre-crash admissions.
func newSessionJournal(w *journal.Writer, created []byte, admits [][]byte, compactEvery int, ins *journalInstruments) *sessionJournal {
	return &sessionJournal{w: w, ins: ins, created: created, admits: admits, compactEvery: compactEvery}
}

// appendLocked writes one record, optionally fsyncing — the commit
// point. Callers hold j.mu.
func (j *sessionJournal) appendLocked(typ byte, v any, commit bool) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := j.w.Append(journal.Record{Type: typ, Payload: payload}); err != nil {
		j.ins.errors.Inc()
		return err
	}
	j.ins.appends.Inc()
	j.ins.bytes.Add(float64(len(payload) + 9)) // frame = len + type + payload + crc
	if commit {
		start := time.Now()
		if err := j.w.Sync(); err != nil {
			j.ins.errors.Inc()
			return err
		}
		j.ins.syncs.Inc()
		j.ins.syncSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// logCreated journals the session's creation — the ack point of POST
// /v1/sessions: only after this sync does Create return success.
func (j *sessionJournal) logCreated() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recCreated, json.RawMessage(j.created), true)
}

// roundOpened journals a published round. Not synced: if the append is
// lost, the recovered engine deterministically re-plans the identical
// round, and a later answer's fsync makes it durable anyway (appends
// are ordered, so an answer can never be durable without its round).
// admitSeq is the admission high-water mark at planning time; any
// fsynced taskAdmit up to it precedes this record, so a durable answer
// implies the round's full admission context is durable too.
func (j *sessionJournal) roundOpened(round int, facts []int, panel []string, admitSeq int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recRoundOpen, roundOpenRec{Round: round, Facts: facts, Panel: panel, AdmitSeq: admitSeq}, false)
}

// taskAdmitted journals one admitted fragment — the ack commit point of
// POST /tasks when commit is true (callers batching several fragments
// sync only the last, which carries the whole batch to disk). The
// payload is retained for compaction.
func (j *sessionJournal) taskAdmitted(seq int, final bool, fr *dataset.Fragment, commit bool) error {
	rec := taskAdmitRec{Seq: seq, Final: final, Fragment: fr}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(recTaskAdmit, json.RawMessage(payload), commit); err != nil {
		return err
	}
	j.admits = append(j.admits, payload)
	return nil
}

// answerAccepted journals one accepted answer and syncs — the answer is
// acknowledged to the expert only after this returns.
func (j *sessionJournal) answerAccepted(round int, worker string, values []bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recAnswer, answerRec{Round: round, Worker: worker, Values: values}, true)
}

// roundSealed journals a round's completion and syncs: a timeout-sealed
// partial round must proceed as a partial round after recovery, not
// reopen and wait for the full panel.
func (j *sessionJournal) roundSealed(round, answers int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recRoundSeal, roundSealRec{Round: round, Answers: answers}, true)
}

// commitRound journals the engine's per-round checkpoint (the
// pipeline.Config.Journal commit point) and, every compactEvery commits,
// folds the whole log into {created, checkpoint} via an atomic rewrite.
// Compaction happens here because this is the one quiescent point: the
// engine has consumed every published round, so no round or answer
// record past the checkpoint exists to preserve.
func (j *sessionJournal) commitRound(nextRound, admitSeq int, ck *pipeline.Checkpoint) error {
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		return err
	}
	rec := checkpointRec{NextRound: nextRound, AdmitSeq: admitSeq, Checkpoint: json.RawMessage(bytes.TrimSpace(buf.Bytes()))}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(recCheckpoint, rec, true); err != nil {
		return err
	}
	if j.compactEvery <= 0 {
		return nil
	}
	j.sinceCompact++
	if j.sinceCompact < j.compactEvery {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	// Admit records survive compaction in sequence order: the checkpoint
	// folds their effect on beliefs, but the dataset rebuild needs the
	// fragments themselves, and the staged (not yet applied) suffix must
	// re-enter the admission queue on recovery.
	recs := make([]journal.Record, 0, len(j.admits)+2)
	recs = append(recs, journal.Record{Type: recCreated, Payload: j.created})
	for _, a := range j.admits {
		recs = append(recs, journal.Record{Type: recTaskAdmit, Payload: a})
	}
	recs = append(recs, journal.Record{Type: recCheckpoint, Payload: payload})
	if err := j.w.Reset(recs); err != nil {
		j.ins.errors.Inc()
		return err
	}
	j.sinceCompact = 0
	j.ins.compactions.Inc()
	return nil
}

// close releases the journal file (the log stays on disk for recovery).
func (j *sessionJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Close()
}

// path returns the journal's file path.
func (j *sessionJournal) path() string {
	return j.w.Path()
}

// replayRound is one journaled round awaiting republication during
// recovery: the rebuilt engine re-plans it, publish validates the
// republished facts and panel against the journal, and the journaled
// answers are injected through the session's answer path without being
// re-journaled.
type replayRound struct {
	Round   int
	Facts   []int
	Panel   []string
	Answers []answerRec // journal order
	Sealed  bool
	// AdmitSeq is the admission high-water mark the round was planned
	// under; the replay admission source withholds later fragments until
	// this round is consumed.
	AdmitSeq int
}

// recoveredSession is a journal's parsed content: the creation recipe,
// the newest checkpoint (nil = cold start from the dataset), the round
// counter to resume from, the round suffix to replay, and the full
// admission history (fragments up to baseAdmitSeq are folded into the
// rebuilt dataset; the rest re-enter the admission queue).
type recoveredSession struct {
	req          CreateSessionRequest
	base         *pipeline.Checkpoint
	nextRound    int
	replay       []*replayRound
	admits       []taskAdmitRec // sequence order, contiguous from 1
	admitRaw     [][]byte       // the raw payloads, for compaction reseeding
	admitFinal   bool
	baseAdmitSeq int // admissions folded into base; 0 without a checkpoint
}

// parseJournal validates and folds a journal's record stream. The
// stream grammar is strict — created, then (roundOpen answer* roundSeal?)*
// interleaved with checkpoints at quiescent points and taskAdmit records
// anywhere after created (contiguous ascending sequence, none after a
// final) — and any violation, including an unknown record type, is a
// loud error: a journal the parser does not fully understand must never
// be half-replayed.
func parseJournal(recs []journal.Record) (*recoveredSession, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("journal has no records")
	}
	if recs[0].Type != recCreated {
		return nil, fmt.Errorf("first record has type %d, want created (%d)", recs[0].Type, recCreated)
	}
	state := &recoveredSession{}
	dec := json.NewDecoder(bytes.NewReader(recs[0].Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&state.req); err != nil {
		return nil, fmt.Errorf("created record: %w", err)
	}
	var open *replayRound
	admitFloor := 0 // high-water mark the next roundOpen/checkpoint must not run behind
	for i, r := range recs[1:] {
		switch r.Type {
		case recCreated:
			return nil, fmt.Errorf("record %d: duplicate created record", i+1)
		case recTaskAdmit:
			var ta taskAdmitRec
			if err := json.Unmarshal(r.Payload, &ta); err != nil {
				return nil, fmt.Errorf("record %d: task admit: %w", i+1, err)
			}
			if state.admitFinal {
				return nil, fmt.Errorf("record %d: task admit seq %d after the stream was finalized", i+1, ta.Seq)
			}
			if ta.Seq != len(state.admits)+1 {
				return nil, fmt.Errorf("record %d: task admit seq %d, want %d (contiguous ascending)", i+1, ta.Seq, len(state.admits)+1)
			}
			if ta.Fragment == nil && !ta.Final {
				return nil, fmt.Errorf("record %d: task admit seq %d has no fragment and is not final", i+1, ta.Seq)
			}
			if ta.Fragment != nil {
				if err := ta.Fragment.Validate(); err != nil {
					return nil, fmt.Errorf("record %d: task admit seq %d: %w", i+1, ta.Seq, err)
				}
			}
			state.admits = append(state.admits, ta)
			state.admitRaw = append(state.admitRaw, append([]byte(nil), r.Payload...))
			if ta.Final {
				state.admitFinal = true
			}
		case recRoundOpen:
			var ro roundOpenRec
			if err := json.Unmarshal(r.Payload, &ro); err != nil {
				return nil, fmt.Errorf("record %d: round open: %w", i+1, err)
			}
			if open != nil && !open.Sealed {
				return nil, fmt.Errorf("record %d: round %d opened while round %d is still open", i+1, ro.Round, open.Round)
			}
			if ro.Round <= state.nextRound {
				return nil, fmt.Errorf("record %d: round %d opened after round %d", i+1, ro.Round, state.nextRound)
			}
			if ro.AdmitSeq > len(state.admits) {
				return nil, fmt.Errorf("record %d: round %d planned under admit seq %d but only %d admits journaled",
					i+1, ro.Round, ro.AdmitSeq, len(state.admits))
			}
			if ro.AdmitSeq < admitFloor {
				return nil, fmt.Errorf("record %d: round %d admit seq %d behind the prior high-water mark %d",
					i+1, ro.Round, ro.AdmitSeq, admitFloor)
			}
			admitFloor = ro.AdmitSeq
			open = &replayRound{Round: ro.Round, Facts: ro.Facts, Panel: ro.Panel, AdmitSeq: ro.AdmitSeq}
			state.replay = append(state.replay, open)
			state.nextRound = ro.Round
		case recAnswer:
			var a answerRec
			if err := json.Unmarshal(r.Payload, &a); err != nil {
				return nil, fmt.Errorf("record %d: answer: %w", i+1, err)
			}
			if open == nil || open.Sealed || a.Round != open.Round {
				return nil, fmt.Errorf("record %d: answer for round %d, which is not open", i+1, a.Round)
			}
			for _, prev := range open.Answers {
				if prev.Worker == a.Worker {
					return nil, fmt.Errorf("record %d: duplicate answer from %s in round %d", i+1, a.Worker, a.Round)
				}
			}
			inPanel := false
			for _, id := range open.Panel {
				if id == a.Worker {
					inPanel = true
					break
				}
			}
			if !inPanel {
				return nil, fmt.Errorf("record %d: answer from %s, not in round %d's panel", i+1, a.Worker, a.Round)
			}
			open.Answers = append(open.Answers, a)
		case recRoundSeal:
			var sr roundSealRec
			if err := json.Unmarshal(r.Payload, &sr); err != nil {
				return nil, fmt.Errorf("record %d: round seal: %w", i+1, err)
			}
			if open == nil || open.Sealed || sr.Round != open.Round {
				return nil, fmt.Errorf("record %d: seal for round %d, which is not open", i+1, sr.Round)
			}
			if sr.Answers != len(open.Answers) {
				return nil, fmt.Errorf("record %d: round %d sealed with %d answers but %d journaled",
					i+1, sr.Round, sr.Answers, len(open.Answers))
			}
			if len(open.Answers) == 0 {
				return nil, fmt.Errorf("record %d: round %d sealed with no answers", i+1, sr.Round)
			}
			open.Sealed = true
		case recCheckpoint:
			if open != nil && !open.Sealed {
				return nil, fmt.Errorf("record %d: checkpoint while round %d is still open", i+1, open.Round)
			}
			var cr checkpointRec
			if err := json.Unmarshal(r.Payload, &cr); err != nil {
				return nil, fmt.Errorf("record %d: checkpoint: %w", i+1, err)
			}
			ck, err := pipeline.ReadCheckpoint(bytes.NewReader(cr.Checkpoint))
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if cr.AdmitSeq > len(state.admits) {
				return nil, fmt.Errorf("record %d: checkpoint folds admit seq %d but only %d admits journaled",
					i+1, cr.AdmitSeq, len(state.admits))
			}
			if cr.AdmitSeq < admitFloor {
				return nil, fmt.Errorf("record %d: checkpoint admit seq %d behind the prior high-water mark %d",
					i+1, cr.AdmitSeq, admitFloor)
			}
			admitFloor = cr.AdmitSeq
			// Every round before a checkpoint is folded into it; only the
			// suffix past the newest checkpoint replays.
			state.base = ck
			state.baseAdmitSeq = cr.AdmitSeq
			state.replay = nil
			open = nil
			// The counter restores round-ID monotonicity past compaction, so
			// it is usually ahead of the (folded-away) round records; it may
			// never run behind them.
			if cr.NextRound < state.nextRound {
				return nil, fmt.Errorf("record %d: checkpoint round counter %d behind journaled rounds (%d)",
					i+1, cr.NextRound, state.nextRound)
			}
			state.nextRound = cr.NextRound
		default:
			return nil, fmt.Errorf("record %d: unknown journal record type %d (newer format?)", i+1, r.Type)
		}
	}
	return state, nil
}
