// A training run does not depend on the kernel pool's thread count.
//
// The pool is a process singleton, sized once from PODNET_THREADS, so the
// test trains in two child processes of this binary, at 1 and at 4
// threads, and compares what each prints: the final loss and a digest of
// the final checkpoint, which holds every parameter and BN running
// statistic. nano at 24 px and batch 64 is large enough that the BN column
// sums span several chunks and fork, swish forks, and the loaders render
// a batch's images in parallel.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/trainer.h"
#include "effnet/config.h"

namespace podnet {
namespace {

// FNV-1a over the file's bytes.
std::uint64_t digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h = (h ^ static_cast<unsigned char>(*it)) * 1099511628211ULL;
  }
  return h;
}

// Runs DISABLED_PrintDigest below in a child process with PODNET_THREADS
// set and returns the line it printed, or "" if it printed none.
std::string child_digest(int threads) {
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();
  const std::string cmd =
      "PODNET_THREADS=" + std::to_string(threads) + " '" + self +
      "' --gtest_also_run_disabled_tests"
      " --gtest_filter=ThreadCountTest.DISABLED_PrintDigest 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string found;
  char line[512];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::string(line).rfind("digest ", 0) == 0) found = line;
  }
  pclose(pipe);
  return found;
}

TEST(ThreadCountTest, NanoTrainingIsBitwiseEqualAtOneAndFourThreads) {
  const std::string one = child_digest(1);
  const std::string four = child_digest(4);
  ASSERT_FALSE(one.empty()) << "the 1-thread child printed no digest";
  ASSERT_FALSE(four.empty()) << "the 4-thread child printed no digest";
  EXPECT_EQ(one, four);
}

// Four steps of nano at 24 px and batch 64, plus one sharded eval. Run by
// the test above, in a child process.
TEST(ThreadCountTest, DISABLED_PrintDigest) {
  core::TrainConfig c;
  c.spec = effnet::nano();
  c.dataset.num_classes = 16;
  c.dataset.train_size = 256;
  c.dataset.eval_size = 64;
  c.dataset.resolution = 24;
  c.dataset.seed = 7;
  c.seed = 7;
  c.replicas = 1;
  c.per_replica_batch = 64;
  c.epochs = 1.0;
  c.eval_every_epochs = 1.0;
  c.optimizer.kind = optim::OptimizerKind::kLars;
  c.lr_per_256 = 4.0f;
  c.ir_eval = false;
  c.checkpoint_path = (std::filesystem::temp_directory_path() /
                       ("podnet_thread_count_" + std::to_string(getpid()) +
                        ".ckpt"))
                          .string();
  const core::TrainResult r = core::train(c);
  ASSERT_EQ(r.total_steps, 4);
  std::printf("digest %016llx loss %a\n",
              static_cast<unsigned long long>(digest_file(c.checkpoint_path)),
              r.final_train_loss);
  std::filesystem::remove(c.checkpoint_path);
}

}  // namespace
}  // namespace podnet
