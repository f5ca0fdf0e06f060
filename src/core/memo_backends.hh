/**
 * @file
 * The builtin MemoBackend catalog.
 *
 * memoBackends() is the one way to reach the backend registry: it
 * registers the six builtin strategies (baseline, axmemo,
 * axmemo-notrunc, software-lut, atm, iact) exactly once on first use
 * and returns the registry. Going through an explicit accessor instead
 * of static registrar objects keeps the builtins immune to the
 * static-library dead-stripping that would silently drop
 * self-registering translation units (the artifact registry pays for
 * that with OBJECT libraries; backends are needed by core itself, so
 * an accessor is simpler). Adding a backend is one more add() call
 * in memoBackends(); there is no self-registration path.
 */

#ifndef AXMEMO_CORE_MEMO_BACKENDS_HH
#define AXMEMO_CORE_MEMO_BACKENDS_HH

#include "memo/backend.hh"

namespace axmemo {

/** The backend registry, with the builtins registered. */
MemoBackendRegistry &memoBackends();

} // namespace axmemo

#endif // AXMEMO_CORE_MEMO_BACKENDS_HH
