package grammar.api;

import java.util.List;
import java.util.Map;
import grammar.err.Failure;

// An interface that extends several others; its members carry annotations
// with arguments and generic types closed by '>>'.
@FunctionalContract(level = 2, tags = {"core", "api"})
public interface Service extends Named, Comparable<Service>, java.io.Serializable {
    @Deprecated(since = "2.0")
    Map<String, List<Integer>> index();

    @Timed(unit = "ms") @Retry(times = 3)
    void start(@Config("port") int port, @Config(value = "host", required = false) String host) throws Failure;

    default boolean ready() { return name() != null; }
}
