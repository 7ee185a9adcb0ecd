package wpar

// Reduce exposes the span reducer to the external test package.
var Reduce = reduce
