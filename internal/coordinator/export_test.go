package coordinator

// FrontendList returns the coordinator's frontends in upstream order,
// Entry's intake first.
func (c *Coordinator) FrontendList() []Frontend { return c.frontends() }
