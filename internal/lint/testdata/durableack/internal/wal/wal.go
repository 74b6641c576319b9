// Fixture write-ahead log: the engine recognizes (*Log).AppendNoSync
// and (*GroupCommitter).WaitDurable in any package under internal/wal
// as the durability anchors, so the fixture models the real one's
// shape.
package wal

type Log struct {
	seq uint64
}

// AppendNoSync is the real log's only append: write under the lock,
// leave the fsync to the committer. The engine treats it as a WAL
// append, but not as a durability wait.
func (l *Log) AppendNoSync(p []byte) (uint64, error) {
	l.seq++
	return l.seq, nil
}

// GroupCommitter is the other half: WaitDurable returns once one
// covering fsync made every record up to seq durable.
type GroupCommitter struct {
	durable uint64
}

func (g *GroupCommitter) WaitDurable(seq uint64) error {
	g.durable = seq
	return nil
}
