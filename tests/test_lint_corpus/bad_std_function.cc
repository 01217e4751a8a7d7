// Corpus fixture: the second callable type must fire [std-function].
// Never compiled.
#include <functional>
#include <vector>

class Link
{
  public:
    void transfer(long payload, std::function<void()> done);

  private:
    std::vector<std::function<void()>> waiters_;
};

// A comment mentioning std::function must NOT fire, nor must the
// string literal below.
const char *kDoc = "replaces std::function on the hot path";
