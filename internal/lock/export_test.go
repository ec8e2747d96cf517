package lock

// LoseRelease makes every hold granted from now on never end, as if its
// release event were lost: the event still fires but releases nothing.
func LoseRelease(l *Lock) { l.relFn = func(uint64) {} }
