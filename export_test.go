package idaax

// ReplicationEnabled reports the catalog's incremental-replication flag of a
// table, so the external tests can see what SET_TABLES_REPLICATION set.
func (s *System) ReplicationEnabled(table string) bool {
	meta, err := s.coord.Catalog().Table(table)
	return err == nil && meta.ReplicationEnabled
}
