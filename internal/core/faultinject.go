package core

// FailNextIndexInsert makes the next Add fail with err where its arena append
// would run: after the store append, so that Add's rollback (the store
// truncated back to its length before the Add) runs. It fires once, and a nil
// err disarms it. Through the public API an arena append does not fail, so
// crash-consistency tests — core's and the sharding suite's — arm this
// instead. It is not part of the serving API, and takes the write lock, as Add
// does.
func (e *Engine) FailNextIndexInsert(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failNextInsert = err
}
