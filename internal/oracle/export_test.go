package oracle

// SetUncachedGC makes o rerun the §3.5 analysis at every garbage-
// collection drop, as the oracle did before it kept one analysis per
// threshold vector: the reference the cache is differentially tested
// against.
func SetUncachedGC(o *Oracle) { o.gc.uncached = true }
