// wordcount.hpp — the Section VII evaluation workload.
//
// Both benchmark suites of the paper compute the same thing: take lines
// of text, split each line into words, convert each word to a number
// (base 36, arbitrary precision), hash it (square root — or a roughly
// 80× heavier transcendental/primality variant), and sum the hashes.
//
// The *compute nodes* (wordToNumber / hashNumber) are shared native C++
// functions in both suites — exactly as in the paper, where they were
// Java methods invoked from both the embedded Unicon and the Java
// stream programs. What differs is the coordination:
//
//   native suite   — plain C++: a loop; a two-thread blocking-queue
//                    pipeline; a thread-pool data-parallel map with
//                    serial reduction; a chunked map-reduce (the "Java
//                    parallel streams" analogue that normalizes Fig. 6).
//   junicon suite  — the same four shapes expressed with concurrent
//                    generators over the kernel (the form congenc emits).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congen.hpp"

namespace congen::wc {

/// Deterministic corpus: `lines` lines of `wordsPerLine` pseudo-words.
std::vector<std::string> makeCorpus(std::size_t lines, std::size_t wordsPerLine,
                                    std::uint64_t seed = 42);

// -- shared compute nodes ---------------------------------------------
/// Base-36 decode (Fig. 3's wordToNumber — `new BigInteger(word, 36)`).
BigInt wordToNumber(const std::string& word);
/// Lightweight hash: sqrt of the numeric value (Fig. 3's hashNumber).
double hashLight(const BigInt& n);
/// Heavyweight hash: trigonometric and probabilistic-primality work,
/// roughly 80× the lightweight cost (Section VII).
double hashHeavy(const BigInt& n);

struct Params {
  bool heavy = false;
  std::size_t chunkSize = 64;       // map-reduce / data-parallel chunking
  std::size_t queueCapacity = 256;  // pipeline blocking-queue bound
};

// -- native C++ suite ----------------------------------------------------
double nativeSequential(const std::vector<std::string>& lines, const Params& p);
/// Two threads connected by a bounded mutex queue (the stand-in for
/// java.util.concurrent): producer does split + wordToNumber, consumer
/// hashes and sums.
double nativePipeline(const std::vector<std::string>& lines, const Params& p);
/// Chunked parallel map producing hash vectors; serial reduction
/// ("split out the reduction and effecting serialization").
double nativeDataParallel(const std::vector<std::string>& lines, const Params& p);
/// Chunked parallel map-reduce: each task folds its chunk, chunk sums
/// are combined — the parallel-streams analogue (Fig. 6 normalizer).
double nativeMapReduce(const std::vector<std::string>& lines, const Params& p);

// -- junicon (concurrent generators) suite --------------------------------
/// The same four programs expressed with goal-directed generators over
/// the kernel, in the shape congenc emits for Fig. 3's WordCount class.
double juniconSequential(const std::vector<std::string>& lines, const Params& p);
double juniconPipeline(const std::vector<std::string>& lines, const Params& p);
double juniconDataParallel(const std::vector<std::string>& lines, const Params& p);
double juniconMapReduce(const std::vector<std::string>& lines, const Params& p);

/// All eight variants agree on this reference value (tested).
double referenceHash(const std::vector<std::string>& lines, const Params& p);

}  // namespace congen::wc
