// forkbase_cli — the command-line semantic view (Fig. 1's "Command Line /
// scripting"; substitutes for the demo's Web UI, see DESIGN.md §5).
//
// The CLI opens a database under --db DIR through ForkBase::Open, which
// keeps chunks in FileChunkStore segments and branch heads in the head log
// DIR/heads.fbh; every command is one fresh process over that directory.
#ifndef FORKBASE_CLI_CLI_H_
#define FORKBASE_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace forkbase {

/// Executes one CLI invocation. `args` excludes the program name.
/// Returns the process exit code (0 = success).
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// The usage text (also printed on `help`).
std::string CliUsage();

}  // namespace forkbase

#endif  // FORKBASE_CLI_CLI_H_
