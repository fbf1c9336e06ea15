package grammar.impl;

import java.util.List;
import java.util.Map;
import grammar.api.Visitor;

public class Generic<T extends Comparable<T>> implements Visitor<List<T>> {
    private Map<String, List<Integer>> pairs;
    private Map<String, Map<String, List<Integer>>> nested, spare;
    List<List<String>> rows = null;

    public <K> List<List<K>> group(Map<K, List<K>> in) { return null; }

    public <U extends Comparable<U>> List<T> visit(List<U> items) { return null; }

    public <K, V extends List<List<K>>> List<T> visitAll(V groups, K key) {
        int depth = pairs.size() >> 1;
        return depth >>> 2 > 0 ? null : null;
    }
}
