package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/block"
)

// index is the replica map both stores embed, and the only code that
// decides which generation of a block a store holds. mu guards the map,
// the replicas' metadata and MemStore's buffers; lower-case methods
// expect the caller to hold it.
type index[R interface {
	comparable
	meta() *ReplicaInfo
}] struct {
	mu   sync.Mutex
	reps map[block.ID]R
}

func (x *index[R]) get(id block.ID) (R, error) {
	rep, ok := x.reps[id]
	if !ok {
		return rep, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	return rep, nil
}

// finalized returns the replica holding id if it is readable.
func (x *index[R]) finalized(id block.ID) (R, error) {
	rep, err := x.get(id)
	if err == nil && rep.meta().State != Finalized {
		err = fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	return rep, err
}

// admit is HDFS's generation fence. It maps rep in place of a temporary
// replica at or below rep's generation, or a finalized one below it, and
// returns that one for the store to dispose of; a replica above rep's
// generation, or finalized at it, refuses rep with ErrStale. Without
// overwrite any replica refuses it with ErrExists.
func (x *index[R]) admit(rep R, overwrite bool) (displaced R, err error) {
	b := rep.meta().Block
	old, ok := x.reps[b.ID]
	switch {
	case ok && !overwrite:
		return displaced, fmt.Errorf("%w: %v", ErrExists, b)
	case ok && (old.meta().Block.Gen > b.Gen || old.meta().Block.Gen == b.Gen && old.meta().State == Finalized):
		return displaced, fmt.Errorf("%w: %v, the store holds %+v", ErrStale, b, *old.meta())
	}
	x.reps[b.ID] = rep
	return old, nil
}

// ours refuses with ErrStale once rep was displaced or deleted: a writer
// may commit, and its abort unmap its replica, only while it is ours.
func (x *index[R]) ours(rep R) error {
	if cur, ok := x.reps[rep.meta().Block.ID]; !ok || cur != rep {
		return fmt.Errorf("%w: %v was displaced or deleted", ErrStale, rep.meta().Block)
	}
	return nil
}

// Info implements Store.
func (x *index[R]) Info(id block.ID) (ReplicaInfo, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	rep, err := x.get(id)
	if err != nil {
		return ReplicaInfo{}, err
	}
	return *rep.meta(), nil
}

// Blocks implements Store.
func (x *index[R]) Blocks() []ReplicaInfo {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(x.reps))
	for _, rep := range x.reps {
		if info := rep.meta(); info.State == Finalized {
			out = append(out, *info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block.ID < out[j].Block.ID })
	return out
}

// UsedBytes implements Store.
func (x *index[R]) UsedBytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	var total int64
	for _, rep := range x.reps {
		total += rep.meta().Len
	}
	return total
}
