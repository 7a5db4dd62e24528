// Package a is the ctxflow fixture: callers with and without contexts
// handing context-taking callees a ctx.
package a

import "context"

// DB is a method-carrying callee type.
type DB struct{}

// GetCtx takes a context.
func (d *DB) GetCtx(ctx context.Context, key string) int {
	_ = ctx
	return len(key)
}

// FetchCtx takes a context.
func FetchCtx(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// Fetch takes none; ctx-less callees are out of the check's scope.
func Fetch(n int) int { return n }

// A ctx-holding caller feeding a context-taking callee a fresh root
// context throws its own ctx (and the trace on it) away.
func severs(ctx context.Context, n int) int {
	return FetchCtx(context.Background(), n) // want `FetchCtx is called with context\.Background\(\) although the caller has its own ctx`
}

// Methods are held to the same rule, and so is context.TODO().
func seversTODO(ctx context.Context, d *DB) int {
	return d.GetCtx(context.TODO(), "k") // want `GetCtx is called with context\.TODO\(\) although the caller has its own ctx`
}

// Closures capture the enclosing ctx and are held to the same rule.
func closureInherits(ctx context.Context, n int) int {
	f := func() int {
		return FetchCtx(context.Background(), n) // want `FetchCtx is called with context\.Background\(\)`
	}
	return f()
}

// --- clean code ---

// Passing the caller's own ctx is the point.
func passes(ctx context.Context, n int) int {
	return FetchCtx(ctx, n)
}

// A ctx-less callee has no ctx to pass on.
func noCtxCallee(ctx context.Context, n int) int {
	return Fetch(n)
}

// Root contexts are exactly right at the top of a call tree.
func topLevel(n int) int {
	return FetchCtx(context.Background(), n)
}

// A closure with its own ctx parameter is a fresh propagation scope.
func ownParam() func(context.Context, int) int {
	return func(ctx context.Context, n int) int {
		return FetchCtx(ctx, n)
	}
}
