package store

// StageBufSize exposes the Put staging step to the external tests.
const StageBufSize = stageBufSize
