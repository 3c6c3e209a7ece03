// congen.hpp — umbrella header for the concurrent-generators library.
//
// Pulls in the public API: the dynamic runtime (Value, collections,
// procedures), the goal-directed iterator kernel, co-expressions and
// pipes, the parallel abstractions (Pipeline, DataParallel), the
// builtins, and the embedding toolchain (parser, normalizer,
// interpreter). Generated code from the congenc translator includes this
// header.
#pragma once

#include "bignum/bigint.hpp"
#include "builtins/builtins.hpp"
#include "coexpr/shadow.hpp"
#include "concur/cancel.hpp"
#include "concur/pipe.hpp"
#include "concur/thread_pool.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "kernel/basic.hpp"
#include "kernel/coexpression.hpp"
#include "kernel/compose.hpp"
#include "kernel/control.hpp"
#include "kernel/error_env.hpp"
#include "kernel/gen.hpp"
#include "kernel/iterate.hpp"
#include "kernel/ops.hpp"
#include "kernel/scan.hpp"
#include "kernel/trace.hpp"
#include "par/data_parallel.hpp"
#include "par/pipeline.hpp"
#include "runtime/atom.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/proc.hpp"
#include "runtime/record.hpp"
#include "runtime/value.hpp"
#include "runtime/var.hpp"
#include "transform/normalize.hpp"
