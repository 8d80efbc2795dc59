// Durable mode for embdb tables (DESIGN §11). A table commits one stream,
// "tbl.<name>", whose record count is the committed row count. The only
// RAM metadata — pageFirstRow — is derivable, so Reopen rebuilds it with
// one metered sequential scan of the committed pages rather than
// persisting it.
package embdb

import (
	"fmt"

	"pds/internal/logstore"
)

func tableStreamName(table string) string { return "tbl." + table }

// stream captures the table's committed extent. The caller must have
// Flushed first.
func (t *Table) stream() logstore.Stream {
	return logstore.StreamOf(tableStreamName(t.name), t.log)
}

// SyncTables is the durability point for a set of tables sharing one
// chip: flush each and append a single commit record covering all of
// them. Rows inserted before a completed SyncTables survive any later
// crash; rows after it may roll back (prefix semantics).
func SyncTables(j *logstore.Journal, tables ...*Table) error {
	m := &logstore.Manifest{}
	for _, t := range tables {
		if err := t.Flush(); err != nil {
			return err
		}
		m.Streams = append(m.Streams, t.stream())
	}
	return j.Commit(m)
}

// ReopenTable reconstructs a table from recovered state at its committed
// extent (an empty table when the stream was never committed). The
// pageFirstRow directory is rebuilt by scanning the committed pages; the
// scan is metered into rec's recovery statistics.
func ReopenTable(rec *logstore.Recovered, name string, schema Schema) (*Table, error) {
	log, err := rec.OpenLog(tableStreamName(name))
	if err != nil {
		return nil, err
	}
	t := &Table{name: name, schema: schema, log: log, rows: log.Len()}
	buf := log.PageBuf()
	defer logstore.PutPageBuf(buf)
	var reads int64
	cum := int32(0)
	for p := 0; p < log.Pages(); p++ {
		page, err := log.ReadPage(p, *buf)
		if err != nil {
			return nil, err
		}
		reads++
		t.pageFirstRow = append(t.pageFirstRow, cum)
		cum += int32(page.Len())
	}
	rec.MeterPageReads(reads)
	if int(cum) != t.rows {
		return nil, fmt.Errorf("%w: table %s committed %d rows, pages hold %d",
			logstore.ErrCorruptManifest, name, t.rows, cum)
	}
	return t, nil
}
